"""Command-line interface.

Subcommands: simulate, fit, predict, cv, assoc, verify. Every run writes a
manifest (command, resolved config, input digests, version, wall time) to
the output directory before any results; primary outputs are byte-identical
across reruns with the same inputs and seeds, manifests excluded.

Exit codes: 0 success, 2 usage or validation error, 3 numerical failure,
4 I/O failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from latent_brrr import __version__
from latent_brrr import io as lio
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.evaluate import mse, permutation_test
from latent_brrr.gibbs import RunStats, draw_factor_rows, run_chain
from latent_brrr.model import (
    Dataset,
    Dims,
    ModelConfig,
    check_finite,
    check_number,
    check_seed,
    resolve_sigma_omega,
)
from latent_brrr.simulate import SimConfig, generate
from latent_brrr.theory import (
    PROP2_REFERENCE_TRUNCATION,
    check_prop1,
    check_prop2,
    default_geweke_config,
    gamma_ratio_two_down,
    gamma_ratio_two_down_direct,
    geweke_test,
    prediction_variance_limit,
    truncation_deficit,
)
from latent_brrr.tuning import cross_validate


# Accepted so existing scripts keep working. Fits of one shape advance
# together on one chain axis in a single thread, so a thread count has no use.
_THREADS_HELP = "no effect; fits of one shape advance together (kept for compatibility)"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latent-brrr",
        description="Bayesian reduced-rank regression with latent structured noise",
    )
    parser.add_argument("--version", action="version", version=f"latent-brrr {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--x", type=Path, required=True)
    data.add_argument("--y", type=Path, required=True)
    data.add_argument("--config", type=Path, required=True, help="model config JSON")
    data.add_argument("--out-dir", type=Path, required=True)

    sim = sub.add_parser("simulate", help="generate a synthetic train/test replicate")
    short = {"n_covariates": ("--p", "number of covariates"),
             "n_targets": ("--k", "number of targets")}
    for field in dataclasses.fields(SimConfig):
        flag, help_text = short.get(field.name, ("--" + field.name.replace("_", "-"), None))
        sim.add_argument(flag, dest=field.name, type=type(field.default),
                         default=field.default, help=help_text)
    sim.add_argument("--out-dir", type=Path, required=True)
    sim.set_defaults(handler=cmd_simulate)

    fit = sub.add_parser("fit", parents=[data], help="run the Gibbs sampler on a dataset")
    fit.add_argument("--samples", action="store_true",
                     help="also write raw retained states to samples.bin")
    fit.set_defaults(handler=cmd_fit)

    pred = sub.add_parser("predict", help="mean predictions from a fitted summary")
    pred.add_argument("--x", type=Path, required=True)
    pred.add_argument("--model", type=Path, required=True, help="posterior_summary.json")
    pred.add_argument("--y", type=Path, default=None, help="targets for scoring (optional)")
    pred.add_argument("--out-dir", type=Path, required=True)
    pred.set_defaults(handler=cmd_predict)

    cv = sub.add_parser("cv", parents=[data], help="cross-validate the latent-SNR and rank grids")
    cv.add_argument("--plan", type=Path, required=True, help="CV plan JSON")
    cv.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    cv.set_defaults(handler=cmd_cv)

    assoc = sub.add_parser("assoc", parents=[data], help="permutation association test (PTVE)")
    assoc.add_argument("--n-perm", type=int, default=100)
    assoc.add_argument("--threads", type=int, default=None, help=_THREADS_HELP)
    assoc.set_defaults(handler=cmd_assoc)

    verify = sub.add_parser("verify", help="Monte-Carlo proposition and sampler checks")
    verify.add_argument("--prop1", action="store_true")
    verify.add_argument("--prop2", action="store_true")
    verify.add_argument("--geweke", action="store_true")
    verify.add_argument("--a1", type=float, default=3.0)
    verify.add_argument("--a2", type=float, default=4.0)
    verify.add_argument("--nu", type=float, default=3.0)
    verify.add_argument("--p", type=int, default=30)
    verify.add_argument("--var-x", type=float, default=1.0)
    verify.add_argument("--truncation", type=int, default=50)
    verify.add_argument("--draws", type=int, default=1_000_000)
    verify.add_argument("--prop1-tolerance", type=float, default=0.05,
                        help="pass tolerance as a fraction of the analytic value")
    verify.add_argument("--prop2-ranks", type=int, nargs="+", default=[1, 2, 3])
    verify.add_argument("--geweke-iters", type=int, default=100_000)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--out-dir", type=Path, required=True)
    verify.set_defaults(handler=cmd_verify)

    return parser


def _require_file(path: Path) -> Path:
    # A missing input is a usage error (exit 2), not an I/O failure.
    if not Path(path).is_file():
        raise ConfigurationError(f"missing input file: {path}")
    return path


def _read_matrix(path: Path) -> np.ndarray:
    """The matrix of a CSV file, checked to be finite."""
    matrix, names = lio.read_matrix_csv(_require_file(path))
    check_finite(matrix, path, names)
    return matrix


def _load_fit_inputs(args) -> tuple[Dataset, ModelConfig]:
    """The dataset of ``--x``/``--y`` and the model config of ``--config``."""
    dataset = Dataset(X=_read_matrix(args.x), Y=_read_matrix(args.y))
    return dataset, lio.model_config_from_dict(lio.read_json(_require_file(args.config)))


def _run_with_manifest(args, config: dict, worker) -> None:
    """Write the manifest to ``args.out_dir`` first, run the worker, then
    finalize the manifest.

    The manifest's inputs are the SHA-256 digests of the file flags given:
    every Path argument but ``--out-dir``.
    """
    args.out_dir.mkdir(parents=True, exist_ok=True)
    digests = {name: lio.file_digest(_require_file(path)) for name, path in vars(args).items()
               if isinstance(path, Path) and name != "out_dir"}
    manifest = args.out_dir / "manifest.json"
    lio.write_manifest(manifest, args.command, config, digests, status="incomplete")
    start = time.perf_counter()
    try:
        extras = worker() or {}
    except BaseException as exc:
        lio.write_manifest(manifest, args.command, config, digests, status="failed",
                           wall_time_seconds=time.perf_counter() - start,
                           error=str(exc))
        raise
    lio.write_manifest(manifest, args.command, config, digests, status="ok",
                       wall_time_seconds=time.perf_counter() - start, extras=extras)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(args) -> None:
    config = SimConfig(**{field.name: getattr(args, field.name)
                          for field in dataclasses.fields(SimConfig)})
    out = args.out_dir

    def worker():
        train, test, truth = generate(config)
        x_names = [f"x{j}" for j in range(config.n_covariates)]
        y_names = [f"y{j}" for j in range(config.n_targets)]
        lio.write_matrix_csv(out / "X_train.csv", train.X, x_names)
        lio.write_matrix_csv(out / "Y_train.csv", train.Y, y_names)
        lio.write_matrix_csv(out / "X_test.csv", test.X, x_names)
        lio.write_matrix_csv(out / "Y_test.csv", test.Y, y_names)
        lio.write_json(out / "truth.json", {
            "Psi": truth.Psi.tolist(),
            "Gamma": truth.Gamma.tolist(),
            "Lambda": truth.Lambda.tolist(),
            "theta": truth.theta.tolist(),
            "omega_scale": truth.omega_scale,
            "h_scale": truth.h_scale,
            "noise_sd": truth.noise_sd,
            "alpha": truth.alpha,
            "realized_fractions": list(truth.realized_fractions),
        })

    _run_with_manifest(args, vars(config).copy(), worker)


def _summarize(stack: np.ndarray) -> dict:
    """Mean and sample sd over the retained states; a single state has no sd.
    An entry whose sums overflow (draws near 1e150 and beyond) is taken from
    its draws divided by their largest magnitude, so finite draws give a
    finite mean and sd."""
    scale = np.abs(stack).max(axis=0)
    scale[scale == 0] = 1.0

    def moment(fn):
        with np.errstate(over="ignore", invalid="ignore"):
            value = fn(stack)
            return np.where(np.isfinite(value), value, fn(stack / scale) * scale).tolist()

    return {"mean": moment(lambda a: a.mean(axis=0)),
            "sd": moment(lambda a: a.std(axis=0, ddof=1)) if len(stack) > 1 else None}


def cmd_fit(args) -> None:
    dataset, config = _load_fit_inputs(args)
    resolved = resolve_sigma_omega(config, dataset.X)
    out = args.out_dir

    def worker():
        trace = run_chain(dataset, resolved)
        samples = trace.samples
        states = samples.states
        summaries = {name: _summarize(np.stack([getattr(s, name) for s in states]))
                     for name in ("Psi", "Gamma", "delta", "tau", "sigma_sq")}
        lio.write_json(out / "posterior_summary.json", {
            "config": lio.model_config_to_dict(samples.config),
            "theta_mean": samples.theta_mean.tolist(),
            "parameter_summaries": summaries,
            "n_retained": len(states),
        })
        if args.samples:
            lio.write_samples(out / "samples.bin", draw_factor_rows(samples, dataset))
        return trace.stats.as_dict()

    _run_with_manifest(args, lio.model_config_to_dict(resolved), worker)


def _read_theta(path: Path) -> np.ndarray:
    """The finite P x K ``theta_mean`` matrix, P, K >= 1, of a posterior summary file."""
    summary = lio.read_json(_require_file(path))
    try:
        theta = np.asarray(summary["theta_mean"], dtype=float)
    except (KeyError, TypeError, ValueError):
        theta = None
    if theta is None or theta.ndim != 2 or 0 in theta.shape or not np.isfinite(theta).all():
        raise ConfigurationError(
            f"{path}: theta_mean must be a non-empty matrix of finite numbers")
    return theta


def cmd_predict(args) -> None:
    X = _read_matrix(args.x)
    theta = _read_theta(args.model)
    if X.shape[1] != theta.shape[0]:
        raise ConfigurationError(
            f"model expects {theta.shape[0]} covariates, X has {X.shape[1]} columns"
        )
    shape = (X.shape[0], theta.shape[1])
    out = args.out_dir
    Y = None
    if args.y is not None:
        Y = _read_matrix(args.y)
        if Y.shape != shape:
            raise ConfigurationError(f"{args.y} has shape {Y.shape}, predictions {shape}")

    def worker():
        predictions = X @ theta
        lio.write_matrix_csv(out / "Y_pred.csv", predictions, prefix="y")
        report: dict = {"n_rows": shape[0], "n_targets": shape[1],
                        "mse_total": None, "mse_per_target": None}
        if Y is not None:
            total, per_target = mse(predictions, Y)
            report["mse_total"] = total
            report["mse_per_target"] = per_target.tolist()
        lio.write_json(out / "eval.json", report)

    _run_with_manifest(args, {"model": str(args.model)}, worker)


def cmd_cv(args) -> None:
    dataset, config = _load_fit_inputs(args)
    plan = lio.cv_plan_from_dict(lio.read_json(_require_file(args.plan)))
    out = args.out_dir

    def worker():
        stats = RunStats()
        best, table = cross_validate(dataset, config, plan, stats)
        n_folds = plan.n_folds
        with open(out / "score_table.csv", "w", encoding="utf-8") as fh:
            fold_cols = ",".join(f"fold{f}_mse" for f in range(n_folds))
            fh.write(f"beta,rank,mean_mse,status,{fold_cols}\n")
            for row in table:
                beta = "" if row["beta"] is None else f"{row['beta']:.17g}"
                folds = ",".join(f"{v:.17g}" for v in row["fold_mse"])
                fh.write(f"{beta},{row['rank']},{row['mean_mse']:.17g},"
                         f"{row['status']},{folds}\n")
        lio.write_json(out / "best_config.json", lio.model_config_to_dict(best))
        return {**stats.as_dict(), "failed_folds": [
            {"beta": row["beta"], "rank": row["rank"], "fold": fold, "error": error}
            for row in table for fold, error in enumerate(row["fold_errors"])
            if error is not None
        ]}

    _run_with_manifest(
        args, {"model_config": lio.model_config_to_dict(config), "plan": vars(plan).copy()},
        worker)


def cmd_assoc(args) -> None:
    dataset, config = _load_fit_inputs(args)
    out = args.out_dir

    def worker():
        rng = np.random.default_rng(config.seed)
        stats = RunStats()
        result = permutation_test(dataset, config, args.n_perm, rng, stats)
        payload = result.as_dict()
        payload["n_perm"] = args.n_perm
        lio.write_json(out / "assoc.json", payload)
        return {**stats.as_dict(), "retried_fits": list(result.retried_fits)}

    _run_with_manifest(
        args, {"model_config": lio.model_config_to_dict(config), "n_perm": args.n_perm}, worker)


def cmd_verify(args) -> None:
    if not (args.prop1 or args.prop2 or args.geweke):
        raise ConfigurationError("verify needs at least one of --prop1/--prop2/--geweke")
    check_seed(args.seed)
    check_number("prop1_tolerance", args.prop1_tolerance)
    if args.prop1_tolerance < 0:
        raise ConfigurationError("prop1_tolerance must be >= 0")
    for rank in args.prop2_ranks if args.prop2 else ():
        if not 0 <= rank < PROP2_REFERENCE_TRUNCATION:
            raise ConfigurationError(f"--prop2-ranks entries must satisfy 0 <= rank < "
                                     f"{PROP2_REFERENCE_TRUNCATION}, got {rank}")
    out = args.out_dir

    def worker():
        propositions = {}
        if args.prop1:
            limit = prediction_variance_limit(args.a1, args.a2, args.nu, args.var_x, args.p)
            report = check_prop1(args.a1, args.a2, args.nu, args.p,
                                 var_x=args.var_x, truncation=args.truncation,
                                 n_draws=args.draws, rng=np.random.default_rng(args.seed),
                                 tolerance=args.prop1_tolerance * limit)
            propositions["prop1"] = report.as_dict()
        if args.prop2:
            reports = check_prop2(args.a2, args.prop2_ranks, n_draws=args.draws,
                                  rng=np.random.default_rng(args.seed + 1))
            entries = []
            for rank, report in zip(args.prop2_ranks, reports):
                entry = report.as_dict()
                entry["rank"] = rank
                stable = truncation_deficit(args.a2, rank)
                direct = gamma_ratio_two_down_direct(args.a2) ** rank
                entry["closed_form_consistency"] = abs(stable - direct) <= 1e-12 * direct
                entries.append(entry)
            propositions["prop2"] = entries
        if propositions:
            lio.write_json(out / "propositions.json", propositions)
        if args.geweke:
            rng = np.random.default_rng(args.seed + 2)
            config = default_geweke_config(rank=2)
            dims = Dims(n_samples=20, n_covariates=3, n_targets=4, rank=2)
            report = geweke_test(config, dims, args.geweke_iters, rng)
            payload = report.as_dict()
            payload["passed"] = bool(report.fraction_within(4.0) >= 0.95)
            lio.write_json(out / "geweke.json", payload)

    flags = {name: value for name, value in vars(args).items()
             if name not in ("command", "handler", "out_dir")}
    _run_with_manifest(args, flags, worker)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.handler(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
