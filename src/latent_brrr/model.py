"""Model types, priors, marginalized covariance, and mean prediction.

The generative model for the latent-noise variant is

    Y = (X Psi + Omega) Gamma + E,      E rows ~ N(0, diag(sigma_sq)),

with the multiplicative-gamma shrinkage stack shared by Gamma rows and the
columns of Psi and Omega:

    tau_h = prod_{l<=h} delta_l,  delta_1 ~ Ga(a1, 1),  delta_l ~ Ga(a2, 1),
    gamma_hj ~ N(0, 1 / (phi_hj tau_h)),   phi_hj ~ Ga(nu/2, nu/2),
    psi_jh   ~ N(0, 1 / tau_h),
    omega_nh ~ N(0, sigma_omega_sq / tau_h).

The independent-noise variant replaces Omega Gamma by a separate additive
term H Lambda carrying its own shrinkage stack; the no-noise variant drops
structured noise entirely; the null variant fixes the coefficients at zero.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from latent_brrr.errors import ConfigurationError, DimensionError, StateError


class Variant(Enum):
    """Which structured-noise mechanism the model assumes."""

    LATENT_NOISE = "latent_noise"
    INDEPENDENT_NOISE = "independent_noise"
    NO_NOISE = "no_noise"
    NULL = "null"


@dataclass(frozen=True)
class Dims:
    """Problem dimensions: samples, covariates, targets, and rank truncation."""

    n_samples: int
    n_covariates: int
    n_targets: int
    rank: int

    def __post_init__(self):
        for name in ("n_samples", "n_covariates", "n_targets", "rank"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigurationError(f"{name} must be a positive integer, got {value!r}")


def check_number(name: str, value, integer: bool = False) -> None:
    """Raise ConfigurationError naming ``name`` unless ``value`` is an integer
    that fits in 64 bits, as numpy needs of a count (with ``integer``), or a
    finite real number. Numpy scalars pass; bools do not."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds) or \
            (isinstance(value, (float, np.floating)) and not np.isfinite(value)) or \
            (integer and not -2**63 <= value < 2**63):
        kind = "a 64-bit integer" if integer else "a finite number"
        raise ConfigurationError(f"{name} must be {kind}, got {value!r}")


def check_finite(matrix: np.ndarray, where, names: list[str] | None = None) -> None:
    """Raise ConfigurationError naming the first non-finite entry of
    ``matrix`` in ``where`` by row and column (by name where ``names`` has it)."""
    finite = np.isfinite(matrix)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        column = names[c] if names and c < len(names) else str(c)
        raise ConfigurationError(f"non-finite value in {where} at row {r}, column {column}")


def check_seed(value) -> None:
    """Raise ConfigurationError unless ``value`` is an unsigned 64-bit integer."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or \
            not 0 <= value < 2**64:
        raise ConfigurationError(f"seed must be an unsigned 64-bit integer, got {value!r}")


# ModelConfig's numeric fields; None leaves the optional ones unset.
_INTEGER_FIELDS = ("rank", "noise_rank", "iterations", "burn_in", "thin")
_REAL_FIELDS = ("a1", "a2", "nu", "a_sigma", "b_sigma", "latent_snr", "sigma_omega_sq")
_OPTIONAL_FIELDS = ("noise_rank", "latent_snr", "sigma_omega_sq")


@dataclass(frozen=True)
class ModelConfig:
    """Hyperparameters, variant selector, and MCMC schedule for one fit.

    For the latent-noise variant exactly one of ``latent_snr`` (the prior
    ratio of covariate-driven to noise-driven latent variance) and
    ``sigma_omega_sq`` (the latent-noise variance itself) must be set;
    ``resolve_sigma_omega`` converts the former into the latter given data.
    """

    variant: Variant = Variant.LATENT_NOISE
    rank: int = 2
    a1: float = 3.0
    a2: float = 4.0
    nu: float = 3.0
    a_sigma: float = 1.0
    b_sigma: float = 1.0
    latent_snr: float | None = None
    sigma_omega_sq: float | None = None
    noise_rank: int | None = None
    iterations: int = 1000
    burn_in: int = 500
    thin: int = 10
    seed: int = 0
    psi_update: str = "fast"

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise ConfigurationError(f"unknown variant {self.variant!r}")
        for name in _INTEGER_FIELDS + _REAL_FIELDS:
            value = getattr(self, name)
            if value is not None or name not in _OPTIONAL_FIELDS:
                check_number(name, value, integer=name in _INTEGER_FIELDS)
        if self.rank < 1:
            raise ConfigurationError("rank must be >= 1")
        if not self.a1 > 2:
            raise ConfigurationError(f"a1 must exceed 2 for finite prior variance, got {self.a1}")
        if not self.a2 > 3:
            raise ConfigurationError(f"a2 must exceed 3 for finite prior variance, got {self.a2}")
        if not self.nu > 2:
            raise ConfigurationError(f"nu must exceed 2, got {self.nu}")
        if not (self.a_sigma > 0 and self.b_sigma > 0):
            raise ConfigurationError("a_sigma and b_sigma must be positive")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")
        if not 0 <= self.burn_in < self.iterations:
            raise ConfigurationError("burn_in must satisfy 0 <= burn_in < iterations")
        if self.thin < 1:
            raise ConfigurationError("thin must be >= 1")
        check_seed(self.seed)
        if self.psi_update not in ("fast", "naive"):
            raise ConfigurationError(f"psi_update must be 'fast' or 'naive', got {self.psi_update!r}")

        latent = self.variant is Variant.LATENT_NOISE
        independent = self.variant is Variant.INDEPENDENT_NOISE
        if latent:
            if (self.latent_snr is None) == (self.sigma_omega_sq is None):
                raise ConfigurationError(
                    "latent-noise variant needs exactly one of latent_snr and sigma_omega_sq"
                )
            if self.latent_snr is not None and not self.latent_snr > 0:
                raise ConfigurationError("latent_snr must be positive")
            if self.sigma_omega_sq is not None and not self.sigma_omega_sq >= 0:
                raise ConfigurationError("sigma_omega_sq must be non-negative")
        elif independent and (self.noise_rank is None or self.noise_rank < 1):
            raise ConfigurationError("independent-noise variant needs noise_rank >= 1")
        if not latent and (self.latent_snr is not None or self.sigma_omega_sq is not None):
            raise ConfigurationError("latent_snr/sigma_omega_sq apply only to the latent-noise variant")
        if not independent and self.noise_rank is not None:
            raise ConfigurationError("noise_rank applies only to the independent-noise variant")


@dataclass(eq=False)
class ModelState:
    """Joint draws of all model parameters: one draw, or C >= 1 draws stacked
    along a leading chain axis (``stack``) that the Gibbs updates advance.

    ``Omega`` is present for the latent-noise variant; ``H``, ``Lambda``
    and their shrinkage stack (``phi_lambda``, ``delta_noise``) for the
    independent-noise variant. Each update gives a field a new array and
    never writes into one, so a draw taken with ``chain`` (views into the
    stacked arrays) stays valid while the chains go on.
    """

    Psi: np.ndarray          # (P, S1)
    Gamma: np.ndarray        # (S1, K)
    phi_gamma: np.ndarray    # (S1, K) local shrinkage for Gamma
    delta: np.ndarray        # (S1,) multiplicative-gamma increments
    sigma_sq: np.ndarray     # (K,) target-specific noise variances
    Omega: np.ndarray | None = None        # (N, S1)
    H: np.ndarray | None = None            # (N, S2)
    Lambda: np.ndarray | None = None       # (S2, K)
    phi_lambda: np.ndarray | None = None   # (S2, K)
    delta_noise: np.ndarray | None = None  # (S2,)

    @classmethod
    def stack(cls, states: Sequence[ModelState]) -> ModelState:
        """The draws of ``states`` stacked along a new leading chain axis."""
        return cls(**{name: stack_arrays([vars(s)[name] for s in states])
                      for name, value in vars(states[0]).items() if value is not None})

    def chain(self, index: int) -> ModelState:
        """Chain ``index``'s draw of a stacked state."""
        return ModelState(**{name: value[index] for name, value in vars(self).items()
                             if value is not None})

    @property
    def tau(self) -> np.ndarray:
        """Cumulative shrinkage tau_h = prod_{l<=h} delta_l, along the last axis."""
        return np.cumprod(self.delta, axis=-1)

    @property
    def tau_noise(self) -> np.ndarray:
        if self.delta_noise is None:
            raise StateError("state has no independent-noise shrinkage stack")
        return np.cumprod(self.delta_noise, axis=-1)

    @property
    def theta(self) -> np.ndarray:
        """Regression coefficient matrix Theta = Psi Gamma, shape (P, K)."""
        return self.Psi @ self.Gamma


def stack_arrays(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The arrays stacked along a new leading axis. Arrays that are already
    the consecutive slices of one stack (views base[0], base[1], ...) give
    that stack back uncopied."""
    base = arrays[0].base
    if isinstance(base, np.ndarray) and base.shape == (len(arrays), *arrays[0].shape) and all(
            a.base is base and a.strides == base.strides[1:]
            and a.ctypes.data == base.ctypes.data + c * base.strides[0]
            for c, a in enumerate(arrays)):
        return base
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


@dataclass(frozen=True)
class Dataset:
    """Paired covariate matrix X (N, P) and target matrix Y (N, K), checked
    to be finite float matrices with one row per sample.

    The statistics a fit reads of them (X'X, X'Y, ...) are formed by
    ``chains.ChainData`` when a batch of chains is set up.
    """

    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        Y = np.asarray(self.Y, dtype=float)
        if X.ndim != 2 or Y.ndim != 2:
            raise DimensionError("X and Y must be two-dimensional matrices")
        if X.shape[0] != Y.shape[0]:
            raise DimensionError(
                f"X has {X.shape[0]} rows but Y has {Y.shape[0]}"
            )
        check_finite(X, "X")
        check_finite(Y, "Y")
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Y", Y)

    @property
    def n_samples(self) -> int:
        return self.X.shape[0]

    @property
    def n_covariates(self) -> int:
        return self.X.shape[1]

    @property
    def n_targets(self) -> int:
        return self.Y.shape[1]


@dataclass(frozen=True)
class PosteriorSamples:
    """Retained post-burn-in, thinned states plus the mean coefficient matrix."""

    states: tuple[ModelState, ...]
    theta_mean: np.ndarray  # (P, K) average of Psi Gamma over retained states
    config: ModelConfig = field(repr=False)


def sample_prior(config: ModelConfig, dims: Dims, rng: np.random.Generator) -> ModelState:
    """Draw one joint state from the prior.

    All randomness comes from ``rng``; the draw order is fixed (shrinkage,
    then coefficients, then noise terms) so that seeded runs replay exactly.
    """
    return _prior_draws(config, dims, rng, 1).chain(0)


def _prior_draws(config: ModelConfig, dims: Dims, rng: np.random.Generator,
                 count: int) -> ModelState:
    """``count`` independent prior draws, stacked along a leading chain axis.

    Each field is drawn for all draws in one call, in ``sample_prior``'s
    order, so one draw (count 1) takes the same variates in the same order
    as ``sample_prior``; more draws take them field by field, not draw by
    draw.
    """
    if config.rank != dims.rank:
        raise ConfigurationError(
            f"config.rank={config.rank} disagrees with dims.rank={dims.rank}"
        )
    N, P, K, S1 = dims.n_samples, dims.n_covariates, dims.n_targets, dims.rank

    if config.variant is Variant.NULL:
        return ModelState(
            Psi=np.zeros((count, P, S1)),
            Gamma=np.zeros((count, S1, K)),
            phi_gamma=np.ones((count, S1, K)),
            delta=np.ones((count, S1)),
            sigma_sq=np.ones((count, K)),
        )

    delta = _draw_mgp_increments(config.a1, config.a2, (count, S1), rng)
    tau = np.cumprod(delta, axis=-1)
    phi_gamma = rng.gamma(config.nu / 2.0, 2.0 / config.nu, size=(count, S1, K))
    Gamma = rng.standard_normal((count, S1, K)) / np.sqrt(phi_gamma * tau[..., None])
    Psi = rng.standard_normal((count, P, S1)) / np.sqrt(tau[:, None, :])

    Omega = H = Lam = phi_lambda = delta_noise = None
    if config.variant is Variant.LATENT_NOISE:
        if config.sigma_omega_sq is None:
            raise ConfigurationError(
                "latent_snr is data-dependent; call resolve_sigma_omega first"
            )
        Omega = rng.standard_normal((count, N, S1)) * \
            np.sqrt(config.sigma_omega_sq / tau[:, None, :])
    elif config.variant is Variant.INDEPENDENT_NOISE:
        S2 = config.noise_rank
        delta_noise = _draw_mgp_increments(config.a1, config.a2, (count, S2), rng)
        tau2 = np.cumprod(delta_noise, axis=-1)
        phi_lambda = rng.gamma(config.nu / 2.0, 2.0 / config.nu, size=(count, S2, K))
        Lam = rng.standard_normal((count, S2, K)) / np.sqrt(phi_lambda * tau2[..., None])
        H = rng.standard_normal((count, N, S2)) / np.sqrt(tau2[:, None, :])

    sigma_sq = 1.0 / rng.gamma(config.a_sigma, 1.0 / config.b_sigma, size=(count, K))

    return ModelState(
        Psi=Psi, Gamma=Gamma, phi_gamma=phi_gamma, delta=delta, sigma_sq=sigma_sq,
        Omega=Omega, H=H, Lambda=Lam, phi_lambda=phi_lambda, delta_noise=delta_noise,
    )


def _draw_mgp_increments(a1: float, a2: float, size: tuple[int, ...],
                         rng: np.random.Generator) -> np.ndarray:
    """Multiplicative-gamma increments of shape ``size``: Ga(a2, 1) draws,
    then Ga(a1, 1) for the first increment of each draw along the last axis."""
    delta = rng.gamma(a2, 1.0, size=size)
    delta[..., 0] = rng.gamma(a1, 1.0, size=size[:-1])
    return delta


def predict_mean(state: ModelState, X_new: np.ndarray) -> np.ndarray:
    """Mean prediction X_new Psi Gamma; exactly linear in X_new."""
    X_new = np.asarray(X_new, dtype=float)
    if X_new.ndim != 2 or X_new.shape[1] != state.Psi.shape[0]:
        raise DimensionError(
            f"X_new must be (M, {state.Psi.shape[0]}), got {X_new.shape}"
        )
    return X_new @ state.Psi @ state.Gamma


def mean_coefficients(state: ModelState, config: ModelConfig) -> np.ndarray:
    """Coefficients B of the mean D B of Y: [Gamma; Lambda] for independent
    noise, Gamma otherwise."""
    if config.variant is Variant.INDEPENDENT_NOISE:
        return np.concatenate([state.Gamma, state.Lambda], axis=-2)
    return state.Gamma


# The ModelState field that holds each variant's factor rows, the N x S
# draws that multiply the noise loadings in the mean D B: S = rank for
# latent noise and noise_rank for independent noise.
FACTOR_ROWS = {Variant.LATENT_NOISE: "Omega", Variant.INDEPENDENT_NOISE: "H"}


def mean_design(x_psi: np.ndarray, rows: np.ndarray | None, config: ModelConfig) -> np.ndarray:
    """Design D of the mean D B of Y, from X Psi and the variant's factor
    rows (``FACTOR_ROWS``; None for no noise), in any one set of rows.

    With ``mean_coefficients`` this is the one place that says what each
    variant adds to X Psi Gamma. The first S1 columns of D multiply Gamma:
    X Psi + Omega for latent noise, X Psi otherwise. Independent noise
    appends the columns of H, which multiply Lambda: D = [X Psi | H]. The
    sampler never forms the null variant's mean; a null state has Psi = 0
    and Gamma = 0, so its D B is zero.
    """
    if config.variant not in FACTOR_ROWS:
        return x_psi
    if rows is None:
        raise StateError(f"{config.variant.value} state has no {FACTOR_ROWS[config.variant]} rows")
    if config.variant is Variant.LATENT_NOISE:
        return x_psi + rows
    return np.concatenate([x_psi, rows], axis=-1)


def marginal_covariance(state: ModelState, config: ModelConfig) -> np.ndarray:
    """Target covariance with the latent noise integrated out.

    Returns sigma_omega_sq * (G*)' (G*) + diag(sigma_sq) where G* is Gamma
    with row h scaled by tau_h^{-1/2} (the shrinkage of the Omega columns).
    """
    if config.variant is not Variant.LATENT_NOISE:
        raise ConfigurationError("marginal covariance is defined for the latent-noise variant")
    if config.sigma_omega_sq is None:
        raise ConfigurationError("resolve latent_snr to sigma_omega_sq before use")
    if np.any(state.sigma_sq <= 0):
        raise StateError("sigma_sq entries must be strictly positive")
    gamma_star = state.Gamma / np.sqrt(state.tau)[:, None]
    # numpy forms A'A with a symmetric rank-k update, so the sum is exactly symmetric.
    return config.sigma_omega_sq * (gamma_star.T @ gamma_star) + np.diag(state.sigma_sq)


def latent_snr_to_variance(beta: float, rank: int, X: np.ndarray) -> float:
    """Latent-noise variance implied by a latent signal-to-noise ratio.

    sigma_omega_sq = (1/beta) * rank * trace(Var(X)), with the empirical
    covariance using denominator N-1.
    """
    if not beta > 0:
        raise ConfigurationError(f"latent SNR must be positive, got {beta}")
    if rank < 1:
        raise ConfigurationError("rank must be >= 1")
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ConfigurationError("X must be a matrix with at least two rows")
    # Judged exactly: the variance of a constant X is 0 or rounding noise.
    if (X.min(axis=0) == X.max(axis=0)).all():
        raise ConfigurationError("latent_snr needs X with variance: every column of X is constant")
    with np.errstate(over="ignore"):
        variance = total_variance(X)
    if not math.isfinite(rank * variance / beta):
        raise ConfigurationError(f"latent_snr {beta} gives no finite sigma_omega_sq: the "
                                 f"variance of X, trace(Var(X)) = {variance:g}, overflows")
    return rank * variance / beta


# Values in one block of a pass over data rows (``sum_squares``).
ROW_BLOCK_VALUES = 2**16


def sum_squares(terms, shape: tuple[int, ...], outer: bool = False):
    """Sum over the N rows of terms T of ``shape`` (..., N, K) of their squares,
    or with ``outer`` of T'T; ``terms(rows)`` gives T[..., rows, :] as a new
    array. Blocks hold at most ROW_BLOCK_VALUES values, and each carries the
    running sum in its first row: for K > 1 the rows add in order, bit for bit
    as in ``np.square(T).sum(axis=-2)``."""
    *lead, n_rows, width = shape
    step = max(1, ROW_BLOCK_VALUES // (math.prod(lead) * width))
    total = 0.0
    for start in range(0, max(n_rows, 1), step):
        block = terms(slice(start, start + step))
        if outer:
            total = total + block.swapaxes(-1, -2) @ block
        else:
            np.square(block, out=block)
            if start:
                block[..., 0, :] += total
            total = np.einsum("...nk->...k", block)  # a third of sum(axis=-2)'s time
        del block  # before the next block is formed: one block at a time
    return total


def total_variance(M: np.ndarray) -> float:
    """trace(Var(M)): the sum of the column variances, denominator N-1."""
    mean = M.mean(axis=0)
    return float(sum_squares(lambda rows: M[rows] - mean, M.shape).sum() / (M.shape[0] - 1))


def resolve_sigma_omega(config: ModelConfig, X: np.ndarray) -> ModelConfig:
    """Return a config with sigma_omega_sq materialized from latent_snr."""
    if config.variant is not Variant.LATENT_NOISE or config.latent_snr is None:
        return config
    value = latent_snr_to_variance(config.latent_snr, config.rank, X)
    return replace(config, latent_snr=None, sigma_omega_sq=value)
