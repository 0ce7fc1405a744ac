"""The four workloads: inputs from a seed, timed CLI commands, correctness gates.

Every workload draws its data with ``simulate.generate``, the package's
implementation of the paper's generator (mixture model, 3% signal / 77%
structured noise / 20% diagonal noise). The timed commands see only the
CSV/JSON files written here.

Shapes follow the regimes they stand for; sweep counts are cut from the
README's 1000 so that several repetitions fit in one run:

- study: N=2000 train / 15000 test, P=30, K=60, S1=3. Sweeps dominated by
  N x K work; the only workload running the independent-noise updates;
  predict parses and writes 15000-row CSVs.
- wide: N=5000, P=300, K=12, S1=2. X (12 MB) exceeds L2 and is read about
  four times per sweep, so psi is a third of the sweep.
- resample: N=2000, P=15, K=20, S1=2, 250 sweeps per chain. Many short
  chains in cv and assoc, spread over the CLI's thread pool.
- verify: the Monte-Carlo proposition checks and a Geweke run on tiny
  matrices, where per-call Python overhead dominates.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

# A gate returns (passed, detail). Gates run one by one, so a gate that
# raises (say, on an output a failed command never wrote) fails alone.
GateCheck = Callable[[], tuple[bool, str]]


@dataclass(frozen=True)
class Command:
    group: str           # end-to-end metric this invocation's time adds to
    argv: list[str]


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _read_json(path: Path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _mb(rows: int, cols: int) -> float:
    return rows * cols * 8 / 1e6


class Workload:
    name: str
    # Primary outputs (relative to the output directory) that must be
    # byte-identical on every repetition of the same inputs.
    primary_outputs: tuple[str, ...] = ()

    def make_inputs(self, seed: int, dest: Path) -> None:
        raise NotImplementedError

    def commands(self, inputs: Path, out: Path) -> list[Command]:
        raise NotImplementedError

    def gates(self, inputs: Path, out: Path) -> dict[str, GateCheck]:
        """Correctness checks on one repetition's outputs, by name."""
        raise NotImplementedError

    def observations(self, inputs: Path, out: Path) -> dict:
        """Values recorded but not gated."""
        return {}

    def sizes(self) -> dict[str, float]:
        """Computed sizes (MB, float64) of the arrays that set the regime."""
        return {}


def _write_split(dest: Path, sim_config, *, with_test: bool) -> None:
    from latent_brrr import io as lio
    from latent_brrr.simulate import generate

    train, test, _ = generate(sim_config)
    splits = {"train": train, "test": test} if with_test else {"train": train}
    for split, data in splits.items():
        x_names = [f"x{j}" for j in range(data.X.shape[1])]
        y_names = [f"y{j}" for j in range(data.Y.shape[1])]
        lio.write_matrix_csv(dest / f"X_{split}.csv", data.X, x_names)
        lio.write_matrix_csv(dest / f"Y_{split}.csv", data.Y, y_names)
    if with_test:
        # Column-mean null model: train means scored on the test split.
        null_mse = float(((test.Y - train.Y.mean(axis=0)) ** 2).mean())
        _write_json(dest / "reference.json", {"null_mse": null_mse})


def _schedule(iterations: int, burn_in: int, thin: int, seed: int) -> dict:
    return {"iterations": iterations, "burn_in": burn_in, "thin": thin, "seed": seed}


def _fit_predict(variant: str, inputs: Path, out: Path, samples: bool) -> list[Command]:
    fit = ["fit", "--x", str(inputs / "X_train.csv"), "--y", str(inputs / "Y_train.csv"),
           "--config", str(inputs / f"config_{variant}.json"),
           "--out-dir", str(out / f"fit_{variant}")]
    if samples:
        fit.append("--samples")
    predict = ["predict", "--x", str(inputs / "X_test.csv"),
               "--model", str(out / f"fit_{variant}" / "posterior_summary.json"),
               "--y", str(inputs / "Y_test.csv"), "--out-dir", str(out / f"predict_{variant}")]
    return [Command("fit_s", fit), Command("predict_s", predict)]


def _beats_null(inputs: Path, out: Path) -> tuple[bool, str]:
    mse = _read_json(out / "predict_latent_noise" / "eval.json")["mse_total"]
    null = _read_json(inputs / "reference.json")["null_mse"]
    return mse < null, f"test_mse {mse:.6f} vs null {null:.6f} (margin {null - mse:+.6f})"


class Study(Workload):
    name = "study"
    variants = ("latent_noise", "independent_noise", "no_noise")
    primary_outputs = tuple(
        f"{step}_{v}/{f}" for v in variants
        for step, f in (("fit", "posterior_summary.json"), ("fit", "samples.bin"),
                        ("predict", "eval.json")))
    n_train, n_test, p, k, rank = 2000, 15000, 30, 60, 3
    iterations, burn_in, thin = 200, 100, 5
    latent_snr = 0.1
    samples = True

    def make_inputs(self, seed, dest):
        from latent_brrr.simulate import SimConfig

        _write_split(dest, SimConfig(alpha=1.0, n_train=self.n_train, n_test=self.n_test,
                                     n_covariates=self.p, n_targets=self.k,
                                     rank=self.rank, seed=seed), with_test=True)
        schedule = _schedule(self.iterations, self.burn_in, self.thin, seed)
        extras = {"latent_noise": {"latent_snr": self.latent_snr},
                  "independent_noise": {"noise_rank": self.rank}, "no_noise": {}}
        for variant in self.variants:
            _write_json(dest / f"config_{variant}.json",
                        {"variant": variant, "rank": self.rank, **extras[variant], **schedule})

    def commands(self, inputs, out):
        return [c for v in self.variants
                for c in _fit_predict(v, inputs, out, samples=self.samples)]

    def gates(self, inputs, out):
        return {"latent_noise.test_mse_below_null": lambda: _beats_null(inputs, out)}

    def observations(self, inputs, out):
        return {"test_mse": _read_json(out / "predict_latent_noise" / "eval.json")["mse_total"]}

    def sizes(self):
        return {"X_train": _mb(self.n_train, self.p), "Y_train": _mb(self.n_train, self.k),
                "X_test": _mb(self.n_test, self.p), "Y_test": _mb(self.n_test, self.k)}


class Wide(Study):
    name = "wide"
    variants = ("latent_noise",)
    primary_outputs = ("fit_latent_noise/posterior_summary.json",
                       "predict_latent_noise/eval.json")
    n_train, n_test, p, k, rank = 5000, 2000, 300, 12, 2
    iterations, burn_in, thin = 300, 150, 5
    # At latent SNR 0.1 the fit lost to the null model on 1 of 11 seeds at
    # this P/N; 0.02 shrinks the signal harder and won on all 17 tried.
    latent_snr = 0.02
    samples = False


class Resample(Workload):
    name = "resample"
    primary_outputs = ("cv/score_table.csv", "cv/best_config.json", "assoc/assoc.json")
    n_train, p, k, rank, n_perm = 2000, 15, 20, 2, 5

    def make_inputs(self, seed, dest):
        from latent_brrr.simulate import SimConfig

        _write_split(dest, SimConfig(alpha=1.0, n_train=self.n_train, n_test=1,
                                     n_covariates=self.p, n_targets=self.k,
                                     rank=self.rank, seed=seed), with_test=False)
        _write_json(dest / "config.json",
                    {"variant": "latent_noise", "rank": self.rank, "latent_snr": 0.1,
                     **_schedule(250, 100, 5, seed)})
        _write_json(dest / "plan.json",
                    {"beta_grid": [0.2, 0.1], "rank_grid": [1, 2], "n_folds": 2, "seed": seed})

    def commands(self, inputs, out):
        data = ["--x", str(inputs / "X_train.csv"), "--y", str(inputs / "Y_train.csv"),
                "--config", str(inputs / "config.json")]
        return [
            Command("cv_s", ["cv", *data, "--plan", str(inputs / "plan.json"),
                             "--out-dir", str(out / "cv")]),
            Command("assoc_s", ["assoc", *data, "--n-perm", str(self.n_perm),
                                "--out-dir", str(out / "assoc")]),
        ]

    def gates(self, inputs, out):
        def cv_rows_ok():
            rows = (out / "cv" / "score_table.csv").read_text(encoding="utf-8").splitlines()
            statuses = [row.split(",")[3] for row in rows[1:]]
            return (bool(statuses) and all(s == "ok" for s in statuses),
                    f"{len(statuses)} rows, statuses {sorted(set(statuses))}")

        def planted_signal_found():
            rank_fraction = _read_json(out / "assoc" / "assoc.json")["rank_fraction"]
            return rank_fraction >= 0.95, f"rank_fraction {rank_fraction:.3f} (needs >= 0.95)"

        return {"cv.all_rows_ok": cv_rows_ok, "assoc.rank_fraction": planted_signal_found}

    def sizes(self):
        return {"X_train": _mb(self.n_train, self.p), "Y_train": _mb(self.n_train, self.k)}


class Verify(Workload):
    name = "verify"
    primary_outputs = ("verify/propositions.json", "verify/geweke.json")
    draws, geweke_iters, p, truncation, batch = 50_000, 3000, 30, 50, 4000

    def make_inputs(self, seed, dest):
        _write_json(dest / "verify.json", {"seed": seed})

    def commands(self, inputs, out):
        seed = _read_json(inputs / "verify.json")["seed"]
        return [Command("verify_s", [
            "verify", "--prop1", "--prop2", "--geweke", "--p", str(self.p),
            "--truncation", str(self.truncation), "--draws", str(self.draws),
            "--geweke-iters", str(self.geweke_iters), "--seed", str(seed),
            "--out-dir", str(out / "verify")])]

    def gates(self, inputs, out):
        # prop1.passed and geweke.passed are observations, not gates: at these
        # sizes they fail on a share of seeds with correct code, because nu=3
        # gives prop1's variance estimate infinite fourth moments and the
        # Geweke batch means are shorter than the shrinkage excursions.
        def prop2_closed_form():
            prop2 = _read_json(out / "verify" / "propositions.json")["prop2"]
            return (bool(prop2) and all(e["closed_form_consistency"] for e in prop2),
                    f"{len(prop2)} ranks")

        def prop1_analytic():
            # Proposition 1 at the CLI defaults a1=3, a2=4, nu=3, with
            # r(a) = 1/((a-1)(a-2)): nu/(nu-2) * P * r(a1) / (1 - r(a2)).
            expected = 3.0 * self.p * (1 / 2) / (1 - 1 / 6)
            value = _read_json(out / "verify" / "propositions.json")["prop1"]["analytic_value"]
            return abs(value - expected) <= 1e-12 * expected, f"{value!r} vs {expected!r}"

        def geweke_finite():
            z = list(_read_json(out / "verify" / "geweke.json")["z_scores"].values())
            return bool(z) and all(math.isfinite(v) for v in z), f"{len(z)} z-scores"

        return {"prop2.closed_form_consistency": prop2_closed_form,
                "prop1.analytic_value": prop1_analytic,
                "geweke.z_scores_finite": geweke_finite}

    def observations(self, inputs, out):
        props = _read_json(out / "verify" / "propositions.json")
        geweke = _read_json(out / "verify" / "geweke.json")
        p1 = props["prop1"]
        return {
            "prop1.passed": p1["passed"],
            "prop1.z": (p1["empirical_value"] - p1["analytic_value"]) / p1["mc_standard_error"],
            "prop2.z": [(e["empirical_value"] - e["analytic_value"]) / e["mc_standard_error"]
                        for e in props["prop2"]],
            "geweke.passed": geweke["passed"],
            "geweke.fraction_within_4": geweke["fraction_within_4"],
        }

    def sizes(self):
        # theory._prediction_term_batches draws Psi as (batch, P, truncation).
        return {"prop1_psi_batch": _mb(self.batch, self.p * self.truncation)}


WORKLOADS: dict[str, Workload] = {w.name: w for w in (Study(), Wide(), Resample(), Verify())}
