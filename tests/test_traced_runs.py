"""A traced run changes no output, and its update spans are the manifest's
buckets.

A span tracer wraps ``gibbs.update_*``, ``gibbs_sweep`` and ``run_chain`` in
every ``latent_brrr`` namespace that holds them, with pass-through wrappers.
Its per-update spans are only comparable with a fit's ``wall_time_by_update``
when every update runs inside a sweep, whose buckets time it, and the
wrapped run must write the bytes an unwrapped run writes.
"""

import functools
import inspect
import sys

import numpy as np
import pytest

import latent_brrr.cli  # noqa: F401  (every package module, before wrapping)
import latent_brrr.gibbs as gibbs
from latent_brrr import io as lio
from latent_brrr.cli import main

TRACED = ["gibbs_sweep", "run_chain"] + [name for name, fn in vars(gibbs).items()
                                          if name.startswith("update_") and inspect.isfunction(fn)]


def bucket(update: str) -> str:
    """The ``wall_time_by_update`` bucket of ``gibbs.update_<step>[_<kind>]``."""
    return update.removeprefix("update_").split("_")[0]


def wrap_gibbs(monkeypatch) -> list[tuple[str, bool]]:
    """Wrap the traced names in every package namespace; the returned list
    gets (name, inside a sweep) for each call."""
    calls: list[tuple[str, bool]] = []
    depth = [0]
    packages = [m for n, m in list(sys.modules.items())
                if n == "latent_brrr" or n.startswith("latent_brrr.")]
    for name in TRACED:
        original = getattr(gibbs, name)

        @functools.wraps(original)
        def traced(*args, _fn=original, _name=name, **kwargs):
            calls.append((_name, depth[0] > 0))
            depth[0] += _name == "gibbs_sweep"
            try:
                return _fn(*args, **kwargs)
            finally:
                depth[0] -= _name == "gibbs_sweep"

        for module in packages:
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, traced)
    return calls


def fit_and_predict(data, config, out) -> tuple[dict, dict]:
    """``fit --samples`` then ``predict``; every output file but the
    manifests, by name, and the fit's manifest."""
    assert main(["fit", "--x", str(data / "X.csv"), "--y", str(data / "Y.csv"),
                 "--config", str(config), "--samples", "--out-dir", str(out / "fit")]) == 0
    assert main(["predict", "--x", str(data / "X.csv"), "--y", str(data / "Y.csv"),
                 "--model", str(out / "fit" / "posterior_summary.json"),
                 "--out-dir", str(out / "predict")]) == 0
    files = {f"{p.parent.name}/{p.name}": p.read_bytes() for p in sorted(out.glob("*/*"))
             if p.name != "manifest.json"}
    return files, lio.read_json(out / "fit" / "manifest.json")


@pytest.mark.parametrize("variant, extra", [
    ("latent_noise", dict(latent_snr=0.2)),
    ("independent_noise", dict(noise_rank=2)),
    ("no_noise", {}),
])
def test_traced_fit_writes_the_untraced_bytes_and_times_every_update_in_a_sweep(
        tmp_path, monkeypatch, variant, extra):
    rng = np.random.default_rng(2)
    X = rng.standard_normal((60, 4))
    Y = X @ rng.standard_normal((4, 5)) + rng.standard_normal((60, 5))
    data = tmp_path / "data"
    data.mkdir()
    lio.write_matrix_csv(data / "X.csv", X, [f"x{j}" for j in range(4)])
    lio.write_matrix_csv(data / "Y.csv", Y, [f"y{j}" for j in range(5)])
    config = tmp_path / "config.json"
    lio.write_json(config, dict(variant=variant, rank=2, iterations=40, burn_in=10, thin=3,
                                seed=4, **extra))

    untraced, _ = fit_and_predict(data, config, tmp_path / "untraced")
    calls = wrap_gibbs(monkeypatch)
    traced, manifest = fit_and_predict(data, config, tmp_path / "traced")

    assert "fit/samples.bin" in traced and traced == untraced
    assert ("run_chain", False) in calls and ("gibbs_sweep", False) in calls
    updates = [(name, inside) for name, inside in calls if name.startswith("update_")]
    assert updates and all(inside for _, inside in updates), \
        sorted({name for name, inside in updates if not inside})
    buckets = set(manifest["wall_time_by_update"]) - {"setup"}
    assert buckets == {bucket(name) for name, _ in updates}
