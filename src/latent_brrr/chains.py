"""The chain axis: the data and Generators of a batch of chains.

Each full conditional in ``gibbs`` updates a ``ModelState`` holding C >= 1
chains along a leading axis (``ModelState.stack``), with their data in a
``ChainData`` and their Generators in a ``ChainStreams``. The ChainData
forms every statistic of the data that the sweep reads (X'X, its
eigendecomposition, X'Y and the rows of the block factor a statistics
sweep works in), once per batch. Products are
batched ``@``, transposes swap the last two axes, and sums run along axis -1
or -2, so one sweep call advances all C chains together: one stacked
Cholesky, eigendecomposition or solve per step. ``gibbs.run_chains`` stacks
the states of C fits of one shape, ``geweke_test`` its C chains, ``run_chain``
and the moment oracles one. Each chain draws from its own Generator the same
variates, in the same shapes and order, as it would alone, so a batched
chain equals its one-chain run up to rounding. The updates replace the
state's arrays and never write into them, so ``state.chain(c)`` taken for a
retained draw stays valid as the chains go on.

Failures. A numerical failure (a factorization that fails on any chain's
matrix, a non-finite precision or rate) raises NumericalError where it
occurs, for the whole batch. ``gibbs.run_chains`` alone decides what that
means: it runs a failed batch again as two halves, down to the single fit
that fails, which reports its message with the iteration while every other
fit runs through.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import isub

import numpy as np

from latent_brrr.errors import NumericalError
from latent_brrr.model import FACTOR_ROWS, Dataset, Dims, ModelConfig, sum_squares

# Bytes of stacked per-chain arrays one batch of ``run_chains`` may hold
# (counted by ``_chain_bytes``); more fits of one shape run in further batches.
_BATCH_BYTES = 32 * 2**20


# Below this ratio of the smallest to the largest eigenvalue of X'X, the
# columns of X count as collinear and every sweep works in the N data rows
# (see ``ChainData``): the block factor's M = lam^{-1/2} U'X'Y would then carry
# rounding error of order 1e-16 * (lam_max / lam_min)^{1/2} relative to Y.
# A squared Cholesky pivot of the Schur complement S below this fraction of
# its diagonal entry counts S as singular.
_FACTOR_RCOND = 1e-10


@dataclass
class RunStats:
    """Wall time per update bucket and Gibbs sweep calls, summed over runs:
    ``omega_row_sweeps`` counts the sweeps, of every variant, that worked in
    the N data rows rather than in the compressed rows of a statistics sweep
    (the name is kept from when only latent noise had the choice)."""

    wall_time_seconds: dict[str, float] = field(default_factory=dict)
    sweeps: int = 0
    omega_row_sweeps: int = 0

    def as_dict(self) -> dict:
        return {"wall_time_by_update": dict(self.wall_time_seconds), "sweeps": self.sweeps,
                "omega_row_sweeps": self.omega_row_sweeps}


@dataclass(frozen=True)
class ChainsTrace:
    """Outcome of ``run_chains``, one entry per fit in the order given: the
    posterior mean of Theta (None for a failed chain) and the error that
    stopped the chain (None for one that ran through)."""

    theta_means: tuple[np.ndarray | None, ...]
    errors: tuple[str | None, ...]


def _stacked(arrays: Sequence[np.ndarray]) -> np.ndarray:
    """The chains' arrays along a new leading axis, copying none they share:
    one broadcast view of an array every chain holds, the stack whose
    consecutive slices (base[0], base[1], ...) they are, or else a stack."""
    first, base = arrays[0], arrays[0].base
    if all(a is first for a in arrays):
        return np.broadcast_to(first, (len(arrays), *first.shape), subok=True)
    if isinstance(base, np.ndarray) and base.shape == (len(arrays), *first.shape) and all(
            a.base is base and a.strides == base.strides[1:]
            and a.ctypes.data == base.ctypes.data + c * base.strides[0]
            for c, a in enumerate(arrays)):
        return base
    return np.stack(arrays)


class ChainData:
    """The data of a batch's chains, stacked along the chain axis, and the
    statistics the sweep reads of it.

    X and Y hold the chains' arrays by one rule (``_stacked``): an array
    every chain holds is one broadcast view; only distinct ones are copied.
    Building the ChainData forms X'X and its eigendecomposition, one
    stacked ``eigh``, and ``set_targets`` forms X'Y. Each chain's
    latent-noise variance, resolved from its own X, comes from its config:
    ``sigma_omega_sq`` has shape (C,), or is None without latent noise.

    A statistics sweep works in the rows A~ = [R; 0] (``gibbs._rows``) in
    place of the N data rows of A = [X Y]. With X'X = U diag(lam) U',
    A'A = R'R for the block factor

        R = [[lam^{1/2} U', M], [0, L_S']],   M = lam^{-1/2} U'X'Y,

    where L_S is the lower Cholesky factor of the Schur complement
    S = Y'Y - M'M, and A~ has S rows of zeros below R for the variant's
    factor rows (S1 for latent noise, S2 for independent noise, none for no
    noise). Its X columns ``x_rows`` = [lam^{1/2} U'; 0], stacked
    (C, P + K + S, P), depend on X alone and are formed with the
    eigendecomposition; ``set_targets`` forms its Y columns
    ``target_rows`` = [M; L_S'; 0], stacked (C, P + K + S, K). S is formed
    as E'E from the least-squares residual E = Y - X (X'X)^{-1} X'Y, which
    keeps its small entries exact to rounding where a target is fitted
    nearly exactly, by ``model.sum_squares`` in row blocks of at most
    ``model.ROW_BLOCK_VALUES`` values. ``target_rows`` is None, for the whole
    batch, where the factor is missing or unreliable: N - P - K < S (which
    includes P + K > N), collinear columns of X, or S singular (both judged
    by ``_FACTOR_RCOND``). ``gibbs.gibbs_sweep`` works in the N data rows
    (X, Y) exactly when ``target_rows`` is None, and in A~ otherwise.

    ``x_psi`` is where ``gibbs._rows`` keeps X Psi between sweeps, in the
    rows the batch's last sweep worked in, so a sweep that starts from the
    last one's Psi in the same rows forms no product with X.
    """

    def __init__(self, datasets: Sequence[Dataset], configs: Sequence[ModelConfig]):
        self.sigma_omega_sq = None if configs[0].sigma_omega_sq is None else \
            np.array([c.sigma_omega_sq for c in configs])
        first = datasets[0]
        self.n_samples = first.n_samples
        self.X = _stacked([d.X for d in datasets])
        self.gram = self.X.swapaxes(-1, -2) @ self.X
        try:
            self.gram_eig = np.linalg.eigh(self.gram)
        except np.linalg.LinAlgError as exc:
            raise NumericalError("eigendecomposition of the Gram matrix X'X failed") from exc
        # The rank of the variant's factor rows: rank for latent noise, noise_rank
        # for independent noise (noise_rank is None otherwise), none for no noise.
        config = configs[0]
        self._pad = (config.noise_rank or config.rank) if config.variant in FACTOR_ROWS else 0
        # Rounding can leave an eigenvalue of a collinear X'X below zero; such
        # a batch has no target_rows and never reads x_rows.
        lam, U = self.gram_eig
        root = np.sqrt(np.maximum(lam, 0.0))[..., :, None] * U.swapaxes(-1, -2)
        self.x_rows = np.concatenate(
            [root, np.zeros((len(datasets), first.n_targets + self._pad, root.shape[-1]))], axis=-2)
        self.x_psi = None
        self.set_targets(_stacked([d.Y for d in datasets]))

    def set_targets(self, Y: np.ndarray) -> None:
        """New targets Y, stacked (C, N, K), with X'Y and the block factor's
        ``target_rows`` formed from them; X'X, its eigendecomposition and
        ``x_rows`` stay."""
        self.Y = Y
        self.xty = self.X.swapaxes(-1, -2) @ Y
        self.target_rows = self._target_rows()

    def _target_rows(self) -> np.ndarray | None:
        lam, U = self.gram_eig
        C, N, K = self.Y.shape
        if N - lam.shape[-1] - K < self._pad or \
                not (lam[..., 0] > _FACTOR_RCOND * lam[..., -1]).all():
            return None
        isqrt = 1.0 / np.sqrt(lam)[..., :, None]
        M = isqrt * (U.swapaxes(-1, -2) @ self.xty)
        coef = U @ (isqrt * M)                       # (X'X)^{-1} X'Y
        # -E = X (X'X)^{-1} X'Y - Y, formed in place: (-E)'(-E) is E'E exactly.
        schur = sum_squares(lambda rows: isub(self.X[:, rows] @ coef, self.Y[:, rows]),
                            self.Y.shape, outer=True)
        try:
            lower = np.linalg.cholesky(schur)
        except np.linalg.LinAlgError:
            return None
        # A pivot lost to rounding: S is singular, as for a repeated target.
        pivots, diagonal = np.diagonal(lower, 0, -2, -1), np.diagonal(schur, 0, -2, -1)
        if not (pivots**2 > _FACTOR_RCOND * diagonal).all():
            return None
        return np.concatenate([M, lower.swapaxes(-1, -2), np.zeros((C, self._pad, K))], axis=-2)


class ChainStreams:
    """One Generator per chain of a batch.

    ``standard_normal`` and ``gamma`` take the chain axis first and fill
    slice c from chain c's Generator with the draw chain c makes alone.
    """

    def __init__(self, generators: Sequence[np.random.Generator]):
        self.generators = list(generators)

    def standard_normal(self, shape) -> np.ndarray:
        out = np.empty(shape)
        for c, generator in enumerate(self.generators):
            generator.standard_normal(out=out[c])
        return out

    def gamma(self, shape: float, scale: np.ndarray) -> np.ndarray:
        # Ga(shape, scale) variates are scale times Ga(shape, 1) variates, bit
        # for bit. Drawing the unit-scale ones into each chain's row and then
        # scaling once skips numpy's checks of an array scale and a temporary
        # per chain, which cost several times the draws at these sizes.
        out = np.empty(np.shape(scale))
        rows = out.reshape(len(self.generators), -1)
        for c, generator in enumerate(self.generators):
            generator.standard_gamma(shape, out=rows[c])
        out *= scale
        return out


def _chain_bytes(dims: Dims, config: ModelConfig) -> int:
    """A generous count of the bytes one chain adds to a batch: its copies of
    X and Y, the N-row arrays of a sweep (Omega or H, X Psi, D, the factor
    draws), X'X with its eigenvectors, the compressed rows ``x_rows`` and,
    for naive Psi, the dense system."""
    N, P, K = dims.n_samples, dims.n_covariates, dims.n_targets
    S = dims.rank + (config.noise_rank or 0)
    count = N * (P + K + 4 * S) + 2 * P * P + (P + K + S) * P
    if config.psi_update == "naive":
        count += 3 * (P * dims.rank) ** 2
    return 8 * count


def batch_width(dataset: Dataset, config: ModelConfig) -> int:
    """How many chains of this shape one batch of ``run_chains`` advances."""
    dims = Dims(dataset.n_samples, dataset.n_covariates, dataset.n_targets, config.rank)
    return max(1, _BATCH_BYTES // _chain_bytes(dims, config))
