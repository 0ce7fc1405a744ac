"""The chain axis: Gibbs chains of one shape advanced together.

Each full conditional in ``gibbs`` is written once, for arrays with any
number of leading axes: products are batched ``@``, transposes swap the last
two axes, and sums run along axis -1 or -2. A lone ``ModelState`` (direct
calls, the moment oracles, Geweke) has no leading axis. ``gibbs.run_chains``
stacks the states of C fits of one shape along a leading chain axis in a
``Chains`` workspace, their data in a ``ChainData`` and their Generators in
a ``ChainStreams``, and advances all C together: one sweep call, one stacked
Cholesky, eigendecomposition or solve per step. Each chain draws from its
own Generator the same variates, in the same shapes and order, as it would
alone, so a batched chain equals its solo run up to rounding. The workspace
is updated in place, and a ``ModelState`` is built only for a retained
state.

Failure isolation. When one chain of a batch meets a numerical failure (a
factorization that fails on its matrix, a non-finite precision or rate),
the update records against that chain the message a solo run would raise,
and gives it stand-ins (an identity matrix, no further draws), so that
every other chain's steps go on unchanged. ``run_chains`` reports the
failed chain with the iteration and ignores what it computes afterwards.
A lone state raises NumericalError at once.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

import numpy as np

from latent_brrr.errors import NumericalError, StateError
from latent_brrr.model import Dataset, Dims, ModelConfig, ModelState

# Bytes of stacked per-chain arrays one batch of ``run_chains`` may hold
# (counted by ``_chain_bytes``); more fits of one shape run in further batches.
_BATCH_BYTES = 32 * 2**20


@dataclass
class RunStats:
    """Wall time per update bucket and Gibbs sweep calls, summed over runs."""

    wall_time_seconds: dict[str, float] = field(default_factory=dict)
    sweeps: int = 0

    def as_dict(self) -> dict:
        return {"wall_time_by_update": dict(self.wall_time_seconds), "sweeps": self.sweeps}


@dataclass(frozen=True)
class ChainsTrace:
    """Outcome of ``run_chains``, one entry per fit in the order given: the
    posterior mean of Theta (None for a failed chain) and the error that
    stopped the chain (None for one that ran through)."""

    theta_means: tuple[np.ndarray | None, ...]
    errors: tuple[str | None, ...]


@dataclass(eq=False)
class Chains:
    """Mutable workspace of chain states: the fields of ``ModelState``,
    stacked along a leading chain axis in a batch (no leading axis for one
    state), plus each chain's latent-noise variance."""

    Psi: np.ndarray
    Gamma: np.ndarray
    phi_gamma: np.ndarray
    delta: np.ndarray
    sigma_sq: np.ndarray
    Omega: np.ndarray | None = None
    H: np.ndarray | None = None
    Lambda: np.ndarray | None = None
    phi_lambda: np.ndarray | None = None
    delta_noise: np.ndarray | None = None
    sigma_omega_sq: np.ndarray | float | None = None

    @property
    def tau(self) -> np.ndarray:
        return np.cumprod(self.delta, axis=-1)

    @property
    def tau_noise(self) -> np.ndarray:
        if self.delta_noise is None:
            raise StateError("state has no independent-noise shrinkage stack")
        return np.cumprod(self.delta_noise, axis=-1)

    @classmethod
    def from_state(cls, state: ModelState, config: ModelConfig) -> Chains:
        return cls(**{name: getattr(state, name) for name in _STATE_FIELDS},
                   sigma_omega_sq=config.sigma_omega_sq)

    @classmethod
    def stack(cls, states: Sequence[ModelState], configs: Sequence[ModelConfig]) -> Chains:
        arrays = {name: None if getattr(states[0], name) is None
                  else stack([getattr(s, name) for s in states]) for name in _STATE_FIELDS}
        omega = None if configs[0].sigma_omega_sq is None else \
            np.array([c.sigma_omega_sq for c in configs])
        return cls(**arrays, sigma_omega_sq=omega)

    def state(self, index=()) -> ModelState:
        """Chain ``index``'s state (the whole workspace when it has no chain axis)."""
        arrays = vars(self)
        return ModelState(**{name: None if arrays[name] is None else arrays[name][index]
                             for name in _STATE_FIELDS})


_STATE_FIELDS = tuple(f.name for f in fields(ModelState))


def stack(arrays: Sequence[np.ndarray]) -> np.ndarray:
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


class ChainData:
    """The datasets of a batch's chains, stacked along the chain axis.

    X, Y and the statistics each Dataset caches (X'X, its eigendecomposition,
    X'Y, y'y) are stacked from the chains' Datasets, so fits that share a
    Dataset share its statistics. Chains that share one Y (permutations of
    X) read it through a broadcast view instead of copies.
    """

    def __init__(self, datasets: Sequence[Dataset]):
        self.datasets = datasets
        first = datasets[0]
        self.n_samples = first.n_samples
        self.X = stack([d.X for d in datasets])
        if all(d.Y is first.Y for d in datasets):
            self.Y = np.broadcast_to(first.Y, (len(datasets), *first.Y.shape))
        else:
            self.Y = stack([d.Y for d in datasets])

    @cached_property
    def gram(self) -> np.ndarray:
        return stack([d.gram for d in self.datasets])

    @cached_property
    def gram_eig(self) -> tuple[np.ndarray, np.ndarray]:
        pairs = [d.gram_eig for d in self.datasets]
        return stack([p[0] for p in pairs]), stack([p[1] for p in pairs])

    @cached_property
    def xty(self) -> np.ndarray:
        return stack([d.xty for d in self.datasets])

    @cached_property
    def yty(self) -> np.ndarray:
        return stack([d.yty for d in self.datasets])


class ChainStreams:
    """One Generator per chain of a batch, and each chain's first failure.

    ``standard_normal`` and ``gamma`` take the chain axis first and fill
    slice c from chain c's Generator with the draw chain c makes alone. A
    failed chain draws nothing more (zeros, ones stand in).
    """

    def __init__(self, generators: Sequence[np.random.Generator]):
        self.generators = list(generators)
        self.failed: dict[int, str] = {}

    def standard_normal(self, shape) -> np.ndarray:
        out = np.zeros(shape)
        for c, generator in enumerate(self.generators):
            if c not in self.failed:
                generator.standard_normal(out=out[c])
        return out

    def gamma(self, shape: float, scale: np.ndarray) -> np.ndarray:
        out = np.ones(np.shape(scale))
        for c, generator in enumerate(self.generators):
            if c not in self.failed:
                out[c] = generator.gamma(shape, scale[c])
        return out

    def fail(self, bad: np.ndarray, message: str) -> None:
        for c in np.flatnonzero(bad):
            self.failed.setdefault(int(c), message)


def record_failure(rng, bad, message: str) -> None:
    """Mark the chains flagged in ``bad`` failed; a lone chain raises instead."""
    if isinstance(rng, ChainStreams):
        rng.fail(bad, message)
    elif np.any(bad):
        raise NumericalError(message)


def guarded(fn, what: str, rng, matrix: np.ndarray, *rest):
    """``fn(matrix, *rest)`` for a matrix or a stack with one per chain.

    A LinAlgError on a lone matrix raises NumericalError(what). In a batch,
    the chains whose own matrices fail are marked failed, and an identity
    stands in for their matrices so that the others' results are unchanged.
    """
    try:
        return fn(matrix, *rest)
    except np.linalg.LinAlgError as exc:
        if not isinstance(rng, ChainStreams):
            raise NumericalError(what) from exc
    bad = np.zeros(len(matrix), dtype=bool)
    for c in range(len(matrix)):
        try:
            fn(matrix[c], *(r[c] for r in rest))
        except np.linalg.LinAlgError:
            bad[c] = True
    record_failure(rng, bad, what)
    matrix = matrix.copy()
    matrix[bad] = np.eye(matrix.shape[-1])
    return fn(matrix, *rest)


def set_fields(state, **values):
    """``state`` with ``values`` set: a new ModelState, or the workspace in place."""
    if isinstance(state, ModelState):
        return replace(state, **values)
    for name, value in values.items():
        setattr(state, name, value)
    return state


def omega_variance(state, config: ModelConfig) -> np.ndarray:
    """sigma_omega_sq: one per chain in a workspace, the config's for a lone state."""
    return np.asarray(state.sigma_omega_sq if isinstance(state, Chains)
                      else config.sigma_omega_sq)


def _chain_bytes(dims: Dims, config: ModelConfig) -> int:
    """A generous count of the bytes one chain adds to a batch: its copies of
    X and Y, the N-row arrays of a sweep (Omega or H, X Psi, D, the factor
    draws), X'X with its eigenvectors and, for naive Psi, the dense system."""
    N, P, K = dims.n_samples, dims.n_covariates, dims.n_targets
    S = dims.rank + (config.noise_rank or 0)
    count = N * (P + K + 4 * S) + 2 * P * P
    if config.psi_update == "naive":
        count += 3 * (P * dims.rank) ** 2
    return 8 * count


def batch_width(dataset: Dataset, config: ModelConfig) -> int:
    """How many chains of this shape one batch of ``run_chains`` advances."""
    dims = Dims(dataset.n_samples, dataset.n_covariates, dataset.n_targets, config.rank)
    return max(1, _BATCH_BYTES // _chain_bytes(dims, config))
