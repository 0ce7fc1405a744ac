"""File formats: CSV matrices, JSON configs/reports, manifests, raw samples.

CSV dialect: UTF-8, comma separator, LF line endings, one header row.
Values are written exactly as C's "%.17g" prints them, so float64 values
round-trip exactly and the bytes are those np.savetxt(fmt="%.17g") wrote;
``g17`` formats them a block of rows at a time. A file with a header but no
data rows is rejected. Config files are JSON with exactly the dataclass
field names in snake_case; unknown keys are a hard error.

samples.bin layout (all little-endian): an 8-byte magic ``LBRRRST1``,
uint32 format version, uint32 reserved (16 bytes total), then six uint64
values [n_states, n_rows, n_covariates, n_targets, rank, noise_rank],
then per retained state the row-major float64 arrays
Psi (P, S1), Gamma (S1, K), phi_gamma (S1, K), delta (S1,), sigma_sq (K,),
followed by Omega (n_rows, S1) when n_rows > 0 and noise_rank == 0, or by
H (n_rows, S2), Lambda (S2, K), phi_lambda (S2, K), delta_noise (S2,) when
noise_rank > 0. ``_sample_blocks`` holds this order for both the writer and
the reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import struct
import warnings
from pathlib import Path

import numpy as np

from latent_brrr import g17
from latent_brrr.errors import ConfigurationError
from latent_brrr.model import ModelConfig, ModelState, PosteriorSamples, Variant
from latent_brrr.tuning import CvPlan

SAMPLES_MAGIC = b"LBRRRST1"
SAMPLES_VERSION = 1
# Magic and version (16 bytes), then (n_states, n_rows, P, K, S1, S2) as uint64.
_SAMPLES_HEADER_BYTES = 16 + 48


# ---------------------------------------------------------------------------
# CSV matrices


def write_matrix_csv(path, matrix: np.ndarray, names: list[str] | None = None,
                     prefix: str = "c") -> None:
    """Write ``matrix`` with a header row of ``names`` (``prefix`` and the
    column number by default)."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2:
        raise ConfigurationError("can only write two-dimensional matrices")
    if names is None:
        names = [f"{prefix}{j}" for j in range(matrix.shape[1])]
    if len(names) != matrix.shape[1]:
        raise ConfigurationError("header length does not match column count")
    with open(path, "wb") as fh:
        if names:
            fh.write(",".join(names).encode("utf-8") + b"\n")
        g17.write_rows(fh, matrix)


def read_matrix_csv(path) -> tuple[np.ndarray, list[str]]:
    """The matrix and header names of a CSV file; a file without data rows
    raises ConfigurationError."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh, warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        try:
            header = fh.readline().rstrip("\n")
            matrix = np.loadtxt(fh, delimiter=",", ndmin=2)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from exc
        except ValueError as exc:
            raise ConfigurationError(f"malformed numeric data in {path}: {exc}") from exc
    if matrix.size == 0:
        raise ConfigurationError(f"{path} has a header but no data rows")
    names = header.split(",") if header else []
    if matrix.shape[1] != len(names):
        raise ConfigurationError(
            f"{path}: header has {len(names)} columns, data has {matrix.shape[1]}"
        )
    return matrix, names


# ---------------------------------------------------------------------------
# JSON


def write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, ensure_ascii=False)
        fh.write("\n")


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigurationError(f"{path} is not UTF-8 text: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON in {path}: {exc}") from exc


def _object(data, what: str) -> dict:
    """A copy of ``data``, which must be a JSON object."""
    if not isinstance(data, dict):
        raise ConfigurationError(f"{what} must be a JSON object")
    return dict(data)


def _from_dict(cls, data: dict, what: str):
    fields = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(data) - fields)
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {', '.join(unknown)}")
    return cls(**data)


def model_config_from_dict(data: dict) -> ModelConfig:
    data = _object(data, "model config")
    if "variant" in data and not isinstance(data["variant"], Variant):
        try:
            data["variant"] = Variant(data["variant"])
        except ValueError:
            valid = ", ".join(v.value for v in Variant)
            raise ConfigurationError(
                f"unknown variant {data['variant']!r}; expected one of: {valid}"
            ) from None
    if "rank_grid" in data or "beta_grid" in data:
        raise ConfigurationError("unknown model_config keys: grids belong in the CV plan")
    return _from_dict(ModelConfig, data, "model config")


def model_config_to_dict(config: ModelConfig) -> dict:
    data = dataclasses.asdict(config)
    data["variant"] = config.variant.value
    return data


def cv_plan_from_dict(data: dict) -> CvPlan:
    data = _object(data, "CV plan")
    for key in ("beta_grid", "rank_grid"):
        if isinstance(data.get(key), list):
            data[key] = tuple(data[key])
    return _from_dict(CvPlan, data, "CV plan")


def file_digest(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# raw retained states


def _sample_blocks(n_rows: int, P: int, K: int, S1: int, S2: int) -> dict[str, tuple]:
    """The ModelState fields stored per retained state, in file order, with
    their shapes; the header's (n_rows, P, K, S1, S2) selects the variant."""
    blocks = {"Psi": (P, S1), "Gamma": (S1, K), "phi_gamma": (S1, K), "delta": (S1,),
              "sigma_sq": (K,)}
    if S2:
        blocks.update(H=(n_rows, S2), Lambda=(S2, K), phi_lambda=(S2, K), delta_noise=(S2,))
    elif n_rows:
        blocks["Omega"] = (n_rows, S1)
    return blocks


def write_samples(path, samples: PosteriorSamples) -> None:
    states = samples.states
    if not states:
        raise ConfigurationError("no retained states to write")
    first = states[0]
    P, S1 = first.Psi.shape
    K = first.Gamma.shape[1]
    n_rows = next((noise.shape[0] for noise in (first.Omega, first.H) if noise is not None), 0)
    S2 = 0 if first.H is None else first.H.shape[1]
    with open(path, "wb") as fh:
        fh.write(SAMPLES_MAGIC)
        fh.write(struct.pack("<II", SAMPLES_VERSION, 0))
        fh.write(struct.pack("<6Q", len(states), n_rows, P, K, S1, S2))
        blocks = _sample_blocks(n_rows, P, K, S1, S2)
        for state in states:
            for name in blocks:
                fh.write(np.ascontiguousarray(getattr(state, name), dtype="<f8").tobytes())


def read_samples(path) -> tuple[ModelState, ...]:
    """The retained states of a samples file; a file whose length is not the
    one its header describes raises ConfigurationError."""
    size = Path(path).stat().st_size
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != SAMPLES_MAGIC:
            raise ConfigurationError(f"{path} is not a samples file (bad magic)")
        if size < _SAMPLES_HEADER_BYTES:
            raise ConfigurationError(f"{path} is truncated: {size} bytes, "
                                     f"shorter than the {_SAMPLES_HEADER_BYTES}-byte header")
        version, _ = struct.unpack("<II", fh.read(8))
        if version != SAMPLES_VERSION:
            raise ConfigurationError(f"unsupported samples format version {version}")
        n_states, n_rows, P, K, S1, S2 = struct.unpack("<6Q", fh.read(48))
        blocks = _sample_blocks(n_rows, P, K, S1, S2)
        expected = _SAMPLES_HEADER_BYTES + n_states * 8 * sum(map(math.prod, blocks.values()))
        if size != expected:
            raise ConfigurationError(f"{path} has {size} bytes, but its header "
                                     f"describes {expected}")

        def read_array(shape):
            count = int(np.prod(shape))
            data = np.frombuffer(fh.read(count * 8), dtype="<f8", count=count)
            return data.reshape(shape).astype(float)

        return tuple(ModelState(**{name: read_array(shape) for name, shape in blocks.items()})
                     for _ in range(n_states))


# ---------------------------------------------------------------------------
# run manifests


def write_manifest(path, command: str, config: dict, inputs: dict[str, str],
                   status: str, wall_time_seconds: float | None = None,
                   error: str | None = None, extras: dict | None = None) -> None:
    from latent_brrr import __version__

    payload = {
        "command": command,
        "config": config,
        "inputs": inputs,
        "version": __version__,
        "status": status,
        "wall_time_seconds": wall_time_seconds,
    }
    if error is not None:
        payload["error"] = error
    if extras:
        payload.update(extras)
    write_json(path, payload)
