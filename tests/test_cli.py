"""End-to-end CLI tests: file formats, exit codes, determinism."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from latent_brrr import io as lio
from latent_brrr.cli import build_parser, main
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.gibbs import ChainsTrace, draw_factor_rows, run_chain
from latent_brrr.model import Dataset, ModelConfig, Variant
from latent_brrr.simulate import SimConfig


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_config(path, **kw):
    base = dict(variant="latent_noise", rank=2, latent_snr=0.1, iterations=60,
                burn_in=30, thin=3, seed=7)
    base.update(kw)
    lio.write_json(path, base)
    return path


# ---------------------------------------------------------------------------
# file formats


def test_matrix_csv_round_trips_exactly(tmp_path):
    rng = np.random.default_rng(0)
    M = rng.standard_normal((7, 4)) * np.array([1e-300, 1.0, 1e12, np.pi])
    M[3, 2] = -0.1 + 0.2  # classic non-representable decimal
    path = tmp_path / "m.csv"
    lio.write_matrix_csv(path, M, ["a", "b", "c", "d"])
    back, names = lio.read_matrix_csv(path)
    assert names == ["a", "b", "c", "d"]
    assert np.array_equal(back, M)
    text = path.read_bytes().decode("utf-8")
    assert "\r" not in text
    assert text.splitlines()[0] == "a,b,c,d"


def round_trip_samples(tmp_path, variant, field, **extra):
    """A run_chain fit's samples with their factor rows drawn, written to
    samples.bin and read back, checked state by state; the read states."""
    rng = np.random.default_rng(1)
    dataset = Dataset(X=rng.standard_normal((20, 3)), Y=rng.standard_normal((20, 4)))
    config = ModelConfig(variant=variant, rank=2, iterations=20, burn_in=10, thin=2, seed=3,
                         **extra)
    samples = draw_factor_rows(run_chain(dataset, config).samples, dataset)
    path = tmp_path / "samples.bin"
    lio.write_samples(path, samples)
    states = lio.read_samples(path)
    assert len(states) == len(samples.states)
    width = extra.get("noise_rank", config.rank)
    for got, want in zip(states, samples.states):
        assert np.array_equal(got.Psi, want.Psi)
        assert getattr(got, field).shape == (20, width)
        assert np.array_equal(getattr(got, field), getattr(want, field))
        assert np.array_equal(got.sigma_sq, want.sigma_sq)
    return path


def test_samples_bin_round_trips(tmp_path):
    path = round_trip_samples(tmp_path, Variant.LATENT_NOISE, "Omega", sigma_omega_sq=0.8)
    # 16-byte magic/version header
    raw = path.read_bytes()
    assert raw[:8] == b"LBRRRST1"
    with pytest.raises(ConfigurationError):
        lio.read_samples(tmp_path / "m.bin") if (tmp_path / "m.bin").write_bytes(b"x" * 64) else None


def test_samples_bin_round_trips_independent_noise_h(tmp_path):
    round_trip_samples(tmp_path, Variant.INDEPENDENT_NOISE, "H", noise_rank=3)


@pytest.mark.parametrize("variant, extra", [(Variant.LATENT_NOISE, dict(sigma_omega_sq=0.8)),
                                            (Variant.INDEPENDENT_NOISE, dict(noise_rank=2))])
def test_samples_without_factor_rows_are_not_written(tmp_path, variant, extra):
    # A fit with the block factor retains no rows; the file must not drop them.
    rng = np.random.default_rng(2)
    dataset = Dataset(X=rng.standard_normal((20, 3)), Y=rng.standard_normal((20, 4)))
    config = ModelConfig(variant=variant, rank=2, iterations=20, burn_in=10, thin=2, **extra)
    samples = run_chain(dataset, config).samples
    with pytest.raises(ConfigurationError, match="no (Omega|H) rows"):
        lio.write_samples(tmp_path / "samples.bin", samples)
    assert not (tmp_path / "samples.bin").exists()


def test_config_json_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    lio.write_json(path, {"variant": "latent_noise", "rank": 2, "latent_snr": 0.1,
                          "sigma_omega": 1.0})
    with pytest.raises(ConfigurationError, match="sigma_omega"):
        lio.model_config_from_dict(lio.read_json(path))
    with pytest.raises(ConfigurationError, match="variant"):
        lio.model_config_from_dict({"variant": "banana"})


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_expected_files(tmp_path):
    out = tmp_path / "sim"
    code = run_cli("simulate", "--alpha", 1.0, "--n-train", 50, "--n-test", 60,
                   "--p", 5, "--k", 6, "--rank", 2, "--seed", 7, "--out-dir", out)
    assert code == 0
    for name in ("X_train.csv", "Y_train.csv", "X_test.csv", "Y_test.csv",
                 "truth.json", "manifest.json"):
        assert (out / name).is_file()
    X, names = lio.read_matrix_csv(out / "X_train.csv")
    assert X.shape == (50, 5) and names == [f"x{j}" for j in range(5)]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["command"] == "simulate"
    truth = json.loads((out / "truth.json").read_text())
    assert np.allclose(truth["realized_fractions"], [0.03, 0.77, 0.20], atol=1e-9)


def test_simulate_rejects_bad_alpha(tmp_path, capsys):
    code = run_cli("simulate", "--alpha", 1.5, "--out-dir", tmp_path / "x")
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_simulate_rejects_nan_fraction_naming_it(tmp_path, capsys):
    code = run_cli("simulate", "--var-signal", "nan", "--out-dir", tmp_path / "x")
    assert code == 2
    assert "var_signal must be" in capsys.readouterr().err


def test_simulate_flags_default_to_sim_config(tmp_path):
    parsed = vars(build_parser().parse_args(["simulate", "--out-dir", str(tmp_path)]))
    # --p and --k set n_covariates and n_targets, whatever their dest is called.
    parsed = {{"p": "n_covariates", "k": "n_targets"}.get(name, name): value
              for name, value in parsed.items()}
    for field in dataclasses.fields(SimConfig):
        default = getattr(SimConfig(), field.name)
        assert parsed[field.name] == default, field.name
        assert type(parsed[field.name]) is type(default), field.name


def test_simulate_is_byte_identical_across_reruns(tmp_path):
    args = ("simulate", "--alpha", 0.5, "--n-train", 30, "--n-test", 40,
            "--p", 4, "--k", 5, "--rank", 2, "--seed", 11)
    a, b = tmp_path / "a", tmp_path / "b"
    assert run_cli(*args, "--out-dir", a) == 0
    assert run_cli(*args, "--out-dir", b) == 0
    for name in ("X_train.csv", "Y_train.csv", "X_test.csv", "Y_test.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


# ---------------------------------------------------------------------------
# fit / predict


@pytest.fixture()
def sim_dir(tmp_path):
    out = tmp_path / "data"
    assert run_cli("simulate", "--alpha", 1.0, "--n-train", 80, "--n-test", 40,
                   "--p", 4, "--k", 5, "--rank", 2, "--seed", 3,
                   "--out-dir", out) == 0
    return out


def test_fit_predict_pipeline(sim_dir, tmp_path):
    config = write_config(tmp_path / "config.json")
    fit_dir = tmp_path / "fit"
    code = run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--samples", "--out-dir", fit_dir)
    assert code == 0
    summary = json.loads((fit_dir / "posterior_summary.json").read_text())
    assert summary["n_retained"] == 10
    assert np.asarray(summary["theta_mean"]).shape == (4, 5)
    # latent_snr was resolved into sigma_omega_sq
    assert summary["config"]["latent_snr"] is None
    assert summary["config"]["sigma_omega_sq"] > 0
    assert (fit_dir / "samples.bin").is_file()
    states = lio.read_samples(fit_dir / "samples.bin")
    assert len(states) == 10

    pred_dir = tmp_path / "pred"
    code = run_cli("predict", "--x", sim_dir / "X_test.csv",
                   "--model", fit_dir / "posterior_summary.json",
                   "--y", sim_dir / "Y_test.csv", "--out-dir", pred_dir)
    assert code == 0
    Y_pred, _ = lio.read_matrix_csv(pred_dir / "Y_pred.csv")
    assert Y_pred.shape == (40, 5)
    report = json.loads((pred_dir / "eval.json").read_text())
    assert report["mse_total"] > 0
    assert len(report["mse_per_target"]) == 5


@pytest.mark.parametrize("variant, extra, field", [
    ("latent_noise", {}, "Omega"),
    ("independent_noise", dict(latent_snr=None, noise_rank=2), "H"),
])
def test_fit_samples_change_no_summary_and_rerun_byte_identically(sim_dir, tmp_path, variant,
                                                                  extra, field):
    # The factor rows of samples.bin are drawn after the run, on a stream of
    # their own, so --samples changes no byte of the summary.
    config = write_config(tmp_path / "config.json", variant=variant, **extra)
    data = ("--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv", "--config", config)
    for name, flags in (("plain", ()), ("a", ("--samples",)), ("b", ("--samples",))):
        assert run_cli("fit", *data, *flags, "--out-dir", tmp_path / name) == 0
    summaries = {name: (tmp_path / name / "posterior_summary.json").read_bytes()
                 for name in ("plain", "a", "b")}
    assert summaries["plain"] == summaries["a"] == summaries["b"]
    assert (tmp_path / "a" / "samples.bin").read_bytes() == \
        (tmp_path / "b" / "samples.bin").read_bytes()
    states = lio.read_samples(tmp_path / "a" / "samples.bin")
    assert len(states) == 10
    assert all(getattr(s, field).shape == (80, 2) for s in states)


def test_fit_retaining_one_state_writes_strict_json_with_null_sd(sim_dir, tmp_path, recwarn):
    # One retained state has no sample sd: the summary says null, not NaN.
    config = write_config(tmp_path / "config.json", iterations=10, burn_in=5, thin=5)
    fit_dir = tmp_path / "fit"
    assert run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--out-dir", fit_dir) == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((fit_dir / "posterior_summary.json").read_text(),
                         parse_constant=reject)
    assert summary["n_retained"] == 1
    for name, entry in summary["parameter_summaries"].items():
        assert entry["sd"] is None and entry["mean"] is not None, name
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert run_cli("predict", "--x", sim_dir / "X_test.csv",
                   "--model", fit_dir / "posterior_summary.json",
                   "--out-dir", tmp_path / "pred") == 0
    assert lio.read_matrix_csv(tmp_path / "pred" / "Y_pred.csv")[0].shape == (40, 5)


def awkward_data(case):
    """X, Y and rank of one awkward but valid data set: P > N, K = 1, a
    constant column, two equal columns, X or Y scaled by 1e8 or 1e-8, a
    rank above P, or columns shifted far from zero (X + 100, Y + 1000)."""
    rng = np.random.default_rng(sum(map(ord, case)))
    N, P, K, rank = 40, 5, 4, 2
    if case == "p_above_n":
        N, P = 12, 20
    if case == "single_target":
        K = 1
    if case == "rank_above_p":
        P, rank = 3, 5
    X = rng.standard_normal((N, P))
    Y = X @ rng.standard_normal((P, K)) + rng.standard_normal((N, K))
    if case == "constant_column":
        X[:, 0] = 3.0
    if case == "duplicate_columns":
        X[:, 1] = X[:, 0]
    scale = {"x_times_1e8": (1e8, 1.0), "y_times_1e8": (1.0, 1e8), "y_times_1e-8": (1.0, 1e-8)}
    x_scale, y_scale = scale.get(case, (1.0, 1.0))
    x_shift, y_shift = (100.0, 1000.0) if case == "shifted" else (0.0, 0.0)
    return X * x_scale + x_shift, Y * y_scale + y_shift, rank


@pytest.mark.parametrize("variant, extra", [
    ("latent_noise", dict(latent_snr=0.5)),
    ("independent_noise", dict(latent_snr=None, noise_rank=2)),
    ("no_noise", dict(latent_snr=None)),
])
@pytest.mark.parametrize("case", ["p_above_n", "single_target", "constant_column",
                                  "duplicate_columns", "x_times_1e8", "y_times_1e8",
                                  "y_times_1e-8", "rank_above_p", "shifted"])
def test_fit_on_awkward_data_gives_a_finite_fit_or_a_clean_exit(tmp_path, capsys, case,
                                                                 variant, extra):
    X, Y, rank = awkward_data(case)
    lio.write_matrix_csv(tmp_path / "X.csv", X, [f"x{j}" for j in range(X.shape[1])])
    lio.write_matrix_csv(tmp_path / "Y.csv", Y, [f"y{j}" for j in range(Y.shape[1])])
    config = write_config(tmp_path / "config.json", variant=variant, rank=rank, **extra)
    code = run_cli("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--config", config, "--out-dir", tmp_path / "fit")
    if code == 0:
        summary = json.loads((tmp_path / "fit" / "posterior_summary.json").read_text())
        theta = np.asarray(summary["theta_mean"], dtype=float)
        assert theta.shape == (X.shape[1], Y.shape[1])
        assert np.isfinite(theta).all()
    else:
        assert code in (2, 3)
        assert capsys.readouterr().err.strip()


@pytest.mark.parametrize("value", [0.1, 3.0])
def test_fit_with_latent_snr_on_a_constant_x_exits_2_naming_the_cause(tmp_path, capsys, value):
    Y = np.random.default_rng(19).standard_normal((50, 2))
    lio.write_matrix_csv(tmp_path / "X.csv", np.full((50, 3), value), ["x0", "x1", "x2"])
    lio.write_matrix_csv(tmp_path / "Y.csv", Y, ["y0", "y1"])
    config = write_config(tmp_path / "config.json", latent_snr=0.5)
    code = run_cli("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--config", config, "--out-dir", tmp_path / "fit")
    assert code == 2
    assert "every column of X is constant" in capsys.readouterr().err
    assert not (tmp_path / "fit" / "posterior_summary.json").exists()


def test_fit_with_latent_snr_on_an_x_whose_variance_overflows_exits_2_naming_it(tmp_path,
                                                                                capsys):
    rng = np.random.default_rng(20)
    lio.write_matrix_csv(tmp_path / "X.csv", 1e200 * rng.standard_normal((50, 3)),
                         ["x0", "x1", "x2"])
    lio.write_matrix_csv(tmp_path / "Y.csv", rng.standard_normal((50, 2)), ["y0", "y1"])
    config = write_config(tmp_path / "config.json", latent_snr=0.5)
    code = run_cli("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--config", config, "--out-dir", tmp_path / "fit")
    assert code == 2
    err = capsys.readouterr().err
    assert "latent_snr" in err and "variance of X" in err
    assert not (tmp_path / "fit" / "posterior_summary.json").exists()


@pytest.mark.parametrize("extra", [
    dict(latent_snr=0.5), dict(latent_snr=None, sigma_omega_sq=1e300),
    dict(variant="independent_noise", latent_snr=None, noise_rank=2),
    dict(variant="no_noise", latent_snr=None)])
def test_fit_on_data_near_the_float_range_writes_finite_summaries(tmp_path, recwarn, extra):
    # X and Y scaled by 1e150 put sigma_sq near 1e300, whose squared
    # deviations overflow: the summary must still be strict JSON, finite.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((60, 4))
    Y = X @ rng.standard_normal((4, 3)) + rng.standard_normal((60, 3))
    lio.write_matrix_csv(tmp_path / "X.csv", 1e150 * X, [f"x{j}" for j in range(4)])
    lio.write_matrix_csv(tmp_path / "Y.csv", 1e150 * Y, ["y0", "y1", "y2"])
    config = write_config(tmp_path / "config.json", **extra)
    assert run_cli("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--config", config, "--out-dir", tmp_path / "fit") == 0

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    summary = json.loads((tmp_path / "fit" / "posterior_summary.json").read_text(),
                         parse_constant=reject)
    for name, entry in summary["parameter_summaries"].items():
        assert np.isfinite(entry["mean"]).all() and np.isfinite(entry["sd"]).all(), name
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("case, row_sweeps", [("p_above_n", 60), ("duplicate_columns", 60),
                                              ("single_target", 0)])
def test_latent_noise_fit_draws_omega_rows_only_where_it_must(tmp_path, case, row_sweeps):
    # P + K + rank > N and collinear columns leave no block factor, so every
    # sweep draws Omega's rows; otherwise no sweep does, retained or not.
    X, Y, rank = awkward_data(case)
    lio.write_matrix_csv(tmp_path / "X.csv", X, [f"x{j}" for j in range(X.shape[1])])
    lio.write_matrix_csv(tmp_path / "Y.csv", Y, [f"y{j}" for j in range(Y.shape[1])])
    config = write_config(tmp_path / "config.json", rank=rank, latent_snr=0.5)
    assert run_cli("fit", "--x", tmp_path / "X.csv", "--y", tmp_path / "Y.csv",
                   "--config", config, "--out-dir", tmp_path / "fit") == 0
    summary = json.loads((tmp_path / "fit" / "posterior_summary.json").read_text())
    assert np.isfinite(np.asarray(summary["theta_mean"], dtype=float)).all()
    manifest = json.loads((tmp_path / "fit" / "manifest.json").read_text())
    assert manifest["sweeps"] == 60 and manifest["omega_row_sweeps"] == row_sweeps
    assert "rss_fallbacks" not in manifest


@pytest.mark.parametrize("text, message", [
    (b"x0,x1\n1.5,2.5\n3.5,abc\n", "malformed numeric data in"),
    (b"x0,x1\n1.5,2.5\n3.5\n", "malformed numeric data in"),
    (b"x0,x1,x2\n1.5,2.5\n3.5,4.5\n", "header has 3 columns, data has 2"),
    (b"\xffx0,x1\n1.5,2.5\n3.5,4.5\n", "is not UTF-8 text"),
])
def test_malformed_csv_exits_2_naming_the_file(sim_dir, tmp_path, capsys, text, message):
    # A non-numeric token, a ragged row, a header with a name too many and a
    # header led by byte 0xff, which never occurs in UTF-8 text.
    bad = tmp_path / "X_bad.csv"
    bad.write_bytes(text)
    code = run_cli("fit", "--x", bad, "--y", sim_dir / "Y_train.csv",
                   "--config", write_config(tmp_path / "c.json"), "--out-dir", tmp_path / "fit")
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and message in err


HEADER = b"x0,x1,x2,x3\n"
ROWS = [b"0.5,-1.25,2,3e-2", b"1.5,2.5,-0.75,4"]


def csv_text(*rows):
    return HEADER + b"\n".join(rows) + b"\n"


@pytest.mark.parametrize("text, code, message", [
    (csv_text(ROWS[0], b"1..5,2,3,4"), 2, "could not convert string '1..5' to float64 at row 1"),
    (csv_text(ROWS[0], b"1-5,2,3,4"), 2, "could not convert string '1-5' to float64 at row 1"),
    (csv_text(b"1e,2,3,4", ROWS[1]), 2, "could not convert string '1e' to float64 at row 0"),
    (csv_text(ROWS[0], b"e5,2,3,4"), 2, "could not convert string 'e5' to float64 at row 1"),
    (csv_text(b".,2,3,4"), 2, "could not convert string '.' to float64 at row 0"),
    (csv_text(ROWS[0], b"1,,3,4"), 2, "could not convert string '' to float64 at row 1, column 2"),
    (HEADER + ROWS[0] + b"\n\n" + ROWS[1] + b"\n", 0, ""),
    (csv_text(*ROWS).replace(b"\n", b"\r\n"), 0, ""),
    (csv_text(ROWS[0], b"# a comment", ROWS[1] + b" # and another"), 0, ""),
    (csv_text(b"1, 2,3 , 4", ROWS[1]), 0, ""),
    (csv_text(ROWS[0], b"nan,2,3,4"), 2, "non-finite value in"),
    (csv_text(b"1,2,3", b"4,5,6"), 2, "header has 4 columns, data has 3"),
    (csv_text(ROWS[0], b"1,2,3,\xff4"), 2, "is not UTF-8 text: 'utf-8' codec can't decode byte 0xff"),
], ids=["two-dots", "inner-sign", "bare-e", "no-mantissa", "dot-alone", "empty-field",
        "blank-line", "crlf", "comment", "spaces", "nan", "column-mismatch", "non-utf8-data"])
def test_csv_outside_the_fast_grammar_reads_as_loadtxt_does(tmp_path, capsys, text, code,
                                                            message):
    # The fast reader hands these to np.loadtxt, whose result or message the
    # command reports as before.
    path = tmp_path / "X_odd.csv"
    path.write_bytes(text)
    summary = write_summary(tmp_path / "posterior_summary.json")
    assert run_cli("predict", "--x", path, "--model", summary,
                   "--out-dir", tmp_path / "pred") == code
    err = capsys.readouterr().err
    if code:
        assert str(path) in err and message in err
    else:
        assert err == ""
        assert lio.read_matrix_csv(tmp_path / "pred" / "Y_pred.csv")[0].shape == (2, 5)


@pytest.mark.parametrize("bad_input", ["config", "plan"])
def test_non_utf8_input_exits_2_naming_the_file(sim_dir, tmp_path, capsys, bad_input):
    # Byte 0xff never occurs in UTF-8 text; it leads a config for fit and a
    # CV plan for cv (a CSV header: test_malformed_csv_exits_2_naming_the_file).
    config = write_config(tmp_path / "config.json")
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1], "rank_grid": [2], "n_folds": 2, "seed": 1})
    bad = tmp_path / f"bad_{bad_input}"
    bad.write_bytes(b"\xff" + {"config": config, "plan": plan}[bad_input].read_bytes())
    data = ("--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv")
    argv = {"config": ("fit", *data, "--config", bad),
            "plan": ("cv", *data, "--config", config, "--plan", bad)}
    code = run_cli(*argv[bad_input], "--out-dir", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "is not UTF-8 text" in err


def test_fit_missing_y_exits_2_with_path(sim_dir, tmp_path, capsys):
    config = write_config(tmp_path / "config.json")
    code = run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "nope.csv",
                   "--config", config, "--out-dir", tmp_path / "fit")
    assert code == 2
    assert "nope.csv" in capsys.readouterr().err


def test_fit_nan_input_exits_2_with_location(sim_dir, tmp_path, capsys):
    X, names = lio.read_matrix_csv(sim_dir / "X_train.csv")
    X[2, 1] = np.nan
    bad = tmp_path / "X_bad.csv"
    lio.write_matrix_csv(bad, X, names)
    config = write_config(tmp_path / "config.json")
    code = run_cli("fit", "--x", bad, "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--out-dir", tmp_path / "fit")
    assert code == 2
    err = capsys.readouterr().err
    assert "row 2" in err and "x1" in err


def write_summary(path):
    """A posterior summary for sim_dir's 4 covariates and 5 targets."""
    lio.write_json(path, {"theta_mean": [[0.0] * 5] * 4})
    return path


@pytest.mark.parametrize("command", ["fit", "predict"])
def test_header_only_csv_exits_2_naming_the_file(sim_dir, tmp_path, capsys, recwarn, command):
    empty = tmp_path / "X_empty.csv"
    empty.write_text("x0,x1,x2,x3\n", encoding="utf-8")
    if command == "fit":
        inputs = ("--y", sim_dir / "Y_train.csv", "--config", write_config(tmp_path / "c.json"))
    else:
        inputs = ("--model", write_summary(tmp_path / "posterior_summary.json"))
    code = run_cli(command, "--x", empty, *inputs, "--out-dir", tmp_path / "out")
    assert code == 2
    err = capsys.readouterr().err
    assert str(empty) in err and "has a header but no data rows" in err
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_fit_on_an_empty_csv_exits_2_naming_the_file(sim_dir, tmp_path, capsys):
    empty = tmp_path / "X_empty.csv"
    empty.write_bytes(b"")
    code = run_cli("fit", "--x", empty, "--y", sim_dir / "Y_train.csv",
                   "--config", write_config(tmp_path / "c.json"), "--out-dir", tmp_path / "out")
    assert code == 2
    assert f"{empty} is empty" in capsys.readouterr().err


@pytest.mark.parametrize("fault", ["too_few_columns", "nan"])
def test_predict_bad_targets_exit_2_before_writing_predictions(sim_dir, tmp_path, capsys,
                                                                fault):
    Y, names = lio.read_matrix_csv(sim_dir / "Y_test.csv")
    if fault == "nan":
        Y[1, 2] = np.nan
    else:
        Y, names = Y[:, :3], names[:3]
    targets = tmp_path / "Y_bad.csv"
    lio.write_matrix_csv(targets, Y, names)
    out = tmp_path / "pred"
    code = run_cli("predict", "--x", sim_dir / "X_test.csv",
                   "--model", write_summary(tmp_path / "posterior_summary.json"),
                   "--y", targets, "--out-dir", out)
    assert code == 2
    assert str(targets) in capsys.readouterr().err
    assert not (out / "Y_pred.csv").exists()


def test_fit_unknown_config_key_exits_2(sim_dir, tmp_path, capsys):
    path = tmp_path / "config.json"
    lio.write_json(path, {"variant": "latent_noise", "rank": 2, "latent_snr": 0.1,
                          "iterations": 20, "burn_in": 5, "thin": 1, "sigma": 1.0})
    code = run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", path, "--out-dir", tmp_path / "fit")
    assert code == 2
    assert "sigma" in capsys.readouterr().err


@pytest.mark.parametrize("fields, name", [
    ({"rank": "3"}, "rank"),
    ({"a1": "4"}, "a1"),
    ({"latent_snr": "0.1"}, "latent_snr"),
    ({"iterations": 20.5}, "iterations"),
    ({"rank": 10**19}, "rank"),
    ([1, 2], "model config"),
])
def test_fit_mistyped_config_exits_2_naming_the_field(sim_dir, tmp_path, capsys, fields, name):
    path = tmp_path / "config.json"
    if isinstance(fields, dict):
        write_config(path, **fields)
    else:
        lio.write_json(path, fields)
    code = run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", path, "--out-dir", tmp_path / "fit")
    assert code == 2
    assert f"{name} must be" in capsys.readouterr().err


@pytest.mark.parametrize("plan, name", [
    ({"n_folds": "2"}, "n_folds"),
    ({"beta_grid": "0.1"}, "beta_grid"),
    ([0], "CV plan"),
])
def test_cv_mistyped_plan_exits_2_naming_the_field(sim_dir, tmp_path, capsys, plan, name):
    path = tmp_path / "plan.json"
    if isinstance(plan, dict):
        plan = {"beta_grid": [0.1], "rank_grid": [2], "n_folds": 3, "seed": 1, **plan}
    lio.write_json(path, plan)
    code = run_cli("cv", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", write_config(tmp_path / "config.json"), "--plan", path,
                   "--out-dir", tmp_path / "cv")
    assert code == 2
    assert f"{name} must be" in capsys.readouterr().err


def test_fit_outputs_byte_identical_across_reruns(sim_dir, tmp_path):
    config = write_config(tmp_path / "config.json")
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("fit", "--x", sim_dir / "X_train.csv",
                       "--y", sim_dir / "Y_train.csv", "--config", config,
                       "--samples", "--out-dir", out) == 0
    assert (a / "posterior_summary.json").read_bytes() == (b / "posterior_summary.json").read_bytes()
    assert (a / "samples.bin").read_bytes() == (b / "samples.bin").read_bytes()
    # manifests are excluded from determinism (they carry wall time)


def test_failed_fit_leaves_failure_manifest(sim_dir, tmp_path, monkeypatch):
    import latent_brrr.cli as cli_mod
    def explode(dataset, config):
        raise NumericalError("synthetic collapse (iteration 3)")

    monkeypatch.setattr(cli_mod, "run_chain", explode)
    config = write_config(tmp_path / "config.json")
    out = tmp_path / "fit"
    code = run_cli("fit", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--out-dir", out)
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert "iteration 3" in manifest["error"]


# ---------------------------------------------------------------------------
# cv / assoc / verify


def test_cv_singleton_grid_echoes_config(sim_dir, tmp_path):
    config = write_config(tmp_path / "config.json", iterations=30, burn_in=10, thin=2)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1], "rank_grid": [2], "n_folds": 3, "seed": 1})
    out = tmp_path / "cv"
    code = run_cli("cv", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--plan", plan, "--threads", 1, "--out-dir", out)
    assert code == 0
    best = json.loads((out / "best_config.json").read_text())
    assert best["latent_snr"] == 0.1 and best["rank"] == 2
    table = (out / "score_table.csv").read_text().splitlines()
    assert table[0].startswith("beta,rank,mean_mse,status")
    assert len(table) == 2


def failing_fit(real, n, message):
    """A run_chains stand-in whose n-th fit, counted over every call, fails
    with ``message``; the other fits run as ``real`` runs them."""
    calls = {"n": 0}

    def run(fits, stats=None):
        trace = real(fits, stats)
        errors = list(trace.errors)
        for i in range(len(fits)):
            calls["n"] += 1
            if calls["n"] == n:
                errors[i] = message
        return ChainsTrace(theta_means=trace.theta_means, errors=tuple(errors))

    return run


def test_cv_manifest_keeps_failed_fold_message(sim_dir, tmp_path, monkeypatch):
    import latent_brrr.tuning as tuning

    monkeypatch.setattr(tuning, "run_chains", failing_fit(
        tuning.run_chains, 2, "synthetic Cholesky failure in fold two"))
    config = write_config(tmp_path / "config.json", iterations=30, burn_in=10, thin=2)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1, 0.2], "rank_grid": [2], "n_folds": 3, "seed": 1})
    out = tmp_path / "cv"
    code = run_cli("cv", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--plan", plan, "--threads", 1, "--out-dir", out)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["failed_folds"] == [{
        "beta": 0.1, "rank": 2, "fold": 1,
        "error": "synthetic Cholesky failure in fold two",
    }]
    rows = (out / "score_table.csv").read_text().splitlines()
    assert [r.split(",")[3] for r in rows[1:]] == ["failed", "ok"]


def test_assoc_writes_result(sim_dir, tmp_path):
    config = write_config(tmp_path / "config.json", iterations=30, burn_in=10, thin=2)
    out = tmp_path / "assoc"
    code = run_cli("assoc", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--n-perm", 5, "--threads", 1, "--out-dir", out)
    assert code == 0
    result = json.loads((out / "assoc.json").read_text())
    assert result["n_perm"] == 5
    assert len(result["perm_ptves"]) == 5
    assert 0.0 <= result["rank_fraction"] <= 1.0


def test_manifest_inputs_are_the_file_flags_with_their_digests(sim_dir, tmp_path):
    config = write_config(tmp_path / "config.json", iterations=20, burn_in=5, thin=1)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1], "rank_grid": [2], "n_folds": 2, "seed": 1})
    data = {"x": sim_dir / "X_train.csv", "y": sim_dir / "Y_train.csv", "config": config}
    fit_dir = tmp_path / "fit"
    test = {"x": sim_dir / "X_test.csv", "model": fit_dir / "posterior_summary.json"}
    runs = [  # fit first: predict reads its summary
        ("fit", data, ()),
        ("cv", {**data, "plan": plan}, ()),
        ("assoc", data, ("--n-perm", 2)),
        ("predict", test, ()),
        ("predict", {**test, "y": sim_dir / "Y_test.csv"}, ()),
        ("simulate", {}, ("--n-train", 10, "--n-test", 5, "--p", 2, "--k", 3, "--rank", 1)),
        ("verify", {}, ("--prop2", "--prop2-ranks", 1, "--draws", 200)),
    ]
    for i, (command, files, flags) in enumerate(runs):
        out = fit_dir if command == "fit" else tmp_path / f"{command}{i}"
        file_flags = [arg for name, path in files.items() for arg in (f"--{name}", path)]
        assert run_cli(command, *file_flags, *flags, "--out-dir", out) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["inputs"] == {name: hashlib.sha256(path.read_bytes()).hexdigest()
                                      for name, path in files.items()}, command


def test_verify_prop_subcommand(tmp_path):
    out = tmp_path / "verify"
    code = run_cli("verify", "--prop1", "--prop2", "--a1", 3, "--a2", 4, "--nu", 3,
                   "--p", 30, "--draws", 20000, "--prop2-ranks", 1, 2,
                   "--seed", 0, "--out-dir", out)
    assert code == 0
    report = json.loads((out / "propositions.json").read_text())
    assert report["prop1"]["analytic_value"] == pytest.approx(54.0)
    assert isinstance(report["prop1"]["passed"], bool)
    assert [e["rank"] for e in report["prop2"]] == [1, 2]
    assert all(e["closed_form_consistency"] for e in report["prop2"])


@pytest.mark.parametrize("var_x", ["-1", "nan"])
def test_verify_rejects_bad_var_x(tmp_path, capsys, var_x):
    code = run_cli("verify", "--prop1", "--var-x", var_x, "--draws", 200,
                   "--out-dir", tmp_path / "v")
    assert code == 2
    assert "var_x" in capsys.readouterr().err
    assert not (tmp_path / "v" / "propositions.json").exists()


def test_verify_prop1_at_a_trillion_covariates_exits_0(tmp_path):
    # The closed form needs only P var_x, so its cost does not grow with P.
    assert run_cli("verify", "--prop1", "--p", 10**12, "--draws", 200,
                   "--out-dir", tmp_path / "v") == 0
    report = json.loads((tmp_path / "v" / "propositions.json").read_text())
    assert report["prop1"]["analytic_value"] == pytest.approx(1.8e12)


@pytest.mark.parametrize("flags, field", [
    (("--prop1", "--p", "-1"), "n_covariates"),
    (("--prop1", "--seed", "-1"), "seed"),
    (("--prop2", "--seed", "-2"), "seed"),
    (("--prop1", "--nu", "inf"), "nu"),
    (("--prop1", "--a1", "inf"), "a1"),
    (("--prop2", "--a2", "inf"), "a2"),
    (("--prop1", "--prop1-tolerance", "nan"), "prop1_tolerance"),
    (("--prop1", "--prop1-tolerance", "-0.1"), "prop1_tolerance"),
])
def test_verify_rejects_bad_numeric_flags_naming_the_field(tmp_path, capsys, flags, field):
    code = run_cli("verify", *flags, "--draws", 200, "--out-dir", tmp_path / "v")
    assert code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "v" / "propositions.json").exists()


@pytest.mark.parametrize("ranks", [("1", "50"), ("-1", "2")])
def test_verify_checks_every_prop2_rank_before_any_draw(tmp_path, capsys, monkeypatch, ranks):
    import latent_brrr.cli as cli

    def no_draws(*args, **kwargs):
        raise AssertionError("a check ran before the ranks were validated")

    monkeypatch.setattr(cli, "check_prop1", no_draws)
    monkeypatch.setattr(cli, "check_prop2", no_draws)
    code = run_cli("verify", "--prop1", "--prop2", "--prop2-ranks", *ranks,
                   "--draws", 200, "--out-dir", tmp_path / "v")
    assert code == 2
    bad = next(r for r in ranks if not 0 <= int(r) < 50)
    err = capsys.readouterr().err
    assert "--prop2-ranks" in err and f"got {bad}" in err
    assert not (tmp_path / "v").exists()


def test_verify_manifest_records_every_flag(tmp_path):
    out = tmp_path / "v"
    assert run_cli("verify", "--prop2", "--prop1-tolerance", "0.2", "--draws", 200,
                   "--prop2-ranks", 1, "--out-dir", out) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["prop1_tolerance"] == 0.2
    assert (config["prop1"], config["prop2"], config["geweke"]) == (False, True, False)
    assert config["prop2_ranks"] == [1] and config["draws"] == 200
    assert not {"command", "handler", "out_dir"} & set(config)


def test_verify_geweke_smoke(tmp_path):
    out = tmp_path / "verify"
    code = run_cli("verify", "--geweke", "--geweke-iters", 3000, "--seed", 1,
                   "--out-dir", out)
    assert code == 0
    report = json.loads((out / "geweke.json").read_text())
    assert report["n_iter"] == 3000
    assert 0.0 <= report["fraction_within_4"] <= 1.0


def verify_files(out, *checks):
    """The files of one small ``verify`` run with ``checks``, by name."""
    assert run_cli("verify", *checks, "--draws", 2000, "--geweke-iters", 200, "--seed", 3,
                   "--out-dir", out) == 0
    return {path.name: path.read_bytes() for path in out.iterdir()
            if path.name != "manifest.json"}


def test_verify_combined_run_writes_the_single_check_files(tmp_path):
    # The proposition checks run beside Geweke, each on its own Generator.
    combined = verify_files(tmp_path / "all", "--prop1", "--prop2", "--geweke")
    assert combined == {**verify_files(tmp_path / "props", "--prop1", "--prop2"),
                        **verify_files(tmp_path / "geweke", "--geweke")}
    assert set(combined) == {"propositions.json", "geweke.json"}


def raising(error):
    def fail(*args, **kwargs):
        raise error
    return fail


PROP1_ERROR = ConfigurationError("synthetic prop1 failure")
PROP2_ERROR = ConfigurationError("synthetic prop2 failure")
GEWEKE_ERROR = NumericalError("synthetic geweke failure")


@pytest.mark.parametrize("errors, code, written", [
    ({"check_prop1": PROP1_ERROR}, 2, []),
    ({"geweke_test": GEWEKE_ERROR}, 3, ["propositions.json"]),
    ({"check_prop1": PROP1_ERROR, "geweke_test": GEWEKE_ERROR}, 2, []),
    ({"check_prop2": PROP2_ERROR}, 2, []),
    ({"check_prop1": PROP1_ERROR, "check_prop2": PROP2_ERROR}, 2, []),
])
def test_verify_fails_as_the_checks_run_one_after_another_did(
        tmp_path, monkeypatch, errors, code, written):
    # The error reported is the one a serial run (prop1, prop2, Geweke)
    # meets first; propositions.json is written when both checks pass.
    import latent_brrr.cli as cli

    for name, error in errors.items():
        monkeypatch.setattr(cli, name, raising(error))
    out = tmp_path / "v"
    assert run_cli("verify", "--prop1", "--prop2", "--geweke", "--draws", 200,
                   "--geweke-iters", 20, "--out-dir", out) == code
    assert sorted(path.name for path in out.iterdir()) == sorted(["manifest.json", *written])
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["status"] == "failed"
    assert manifest["error"] == str(next(iter(errors.values())))


@pytest.mark.parametrize("flags, named", [
    (("--prop1", "--draws", 100), "draws"),
    (("--prop2", "--draws", 100), "draws"),
    (("--prop1", "--truncation", 0), "truncation"),
    (("--prop1", "--a1", 2), "a1"),
    (("--geweke-iters", 0), "--geweke-iters"),
])
def test_verify_checks_its_flags_before_geweke_starts(tmp_path, capsys, monkeypatch,
                                                      flags, named):
    import latent_brrr.cli as cli

    monkeypatch.setattr(cli, "geweke_test", raising(AssertionError("geweke_test ran")))
    out = tmp_path / "v"
    assert run_cli("verify", "--geweke", *flags, "--out-dir", out) == 2
    assert named in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert sorted(path.name for path in out.iterdir()) == ["manifest.json"]


def test_verify_prop1_without_covariates_needs_no_draws(tmp_path):
    # check_prop1 returns its zero report before it looks at the draw count.
    assert run_cli("verify", "--prop1", "--p", 0, "--draws", 100,
                   "--out-dir", tmp_path / "v") == 0
    report = json.loads((tmp_path / "v" / "propositions.json").read_text())["prop1"]
    assert report["n_draws"] == 0 and report["passed"]


def test_verify_requires_a_check(tmp_path, capsys):
    assert run_cli("verify", "--out-dir", tmp_path / "v") == 2


def test_assoc_manifest_records_retried_fit(sim_dir, tmp_path, monkeypatch):
    import latent_brrr.evaluate as evaluate

    monkeypatch.setattr(evaluate, "run_chains", failing_fit(
        evaluate.run_chains, 3, "synthetic Cholesky failure in permutation two"))
    config = write_config(tmp_path / "config.json", iterations=20, burn_in=5, thin=1)
    out = tmp_path / "assoc"
    code = run_cli("assoc", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--n-perm", 3, "--out-dir", out)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["retried_fits"] == [
        {"fit": 2, "error": "synthetic Cholesky failure in permutation two"}]
    result = json.loads((out / "assoc.json").read_text())
    assert sorted(result) == ["n_perm", "observed_ptve", "perm_ptves", "rank_fraction"]
    assert len(result["perm_ptves"]) == 3


def test_cv_and_assoc_manifests_record_update_timings_and_sweeps(sim_dir, tmp_path):
    # 80 rows over 3 folds train on 53, 53 and 54 rows: two batches of 30
    # sweeps. The 3 permutations and the observed fit form one batch.
    config = write_config(tmp_path / "config.json", iterations=30, burn_in=10, thin=2)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1, 0.2], "rank_grid": [2], "n_folds": 3, "seed": 1})
    data = ("--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv", "--config", config)
    assert run_cli("cv", *data, "--plan", plan, "--out-dir", tmp_path / "cv") == 0
    assert run_cli("assoc", *data, "--n-perm", 3, "--out-dir", tmp_path / "assoc") == 0
    # Every batch has the block factor, so no sweep draws Omega's rows.
    buckets = {"setup", "psi", "omega", "gamma", "phi", "delta", "sigma"}
    for command, sweeps in (("cv", 60), ("assoc", 30)):
        manifest = json.loads((tmp_path / command / "manifest.json").read_text())
        assert manifest["sweeps"] == sweeps
        assert manifest["omega_row_sweeps"] == 0
        assert "rss_fallbacks" not in manifest
        assert set(manifest["wall_time_by_update"]) == buckets
        assert all(t > 0 for t in manifest["wall_time_by_update"].values())


def test_cv_and_assoc_ignore_threads_flag_and_environment(sim_dir, tmp_path, monkeypatch):
    # --threads is still parsed, for old scripts, but nothing reads it, and
    # LATENT_BRRR_THREADS is no longer read at all.
    config = write_config(tmp_path / "config.json", iterations=20, burn_in=5, thin=1)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1, 0.2], "rank_grid": [1, 2], "n_folds": 2,
                          "seed": 1})
    data = ("--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
            "--config", config)
    primaries = ("cv/score_table.csv", "cv/best_config.json", "assoc/assoc.json")
    outputs = {}
    for name, flags, env in (("default", (), None), ("two", ("--threads", 2), None),
                             ("junk_env", (), "junk")):
        if env is None:
            monkeypatch.delenv("LATENT_BRRR_THREADS", raising=False)
        else:
            monkeypatch.setenv("LATENT_BRRR_THREADS", env)
        out = tmp_path / name
        assert run_cli("cv", *data, "--plan", plan, *flags, "--out-dir", out / "cv") == 0
        assert run_cli("assoc", *data, "--n-perm", 3, *flags,
                       "--out-dir", out / "assoc") == 0
        for command in ("cv", "assoc"):
            manifest = json.loads((out / command / "manifest.json").read_text())
            assert "threads" not in manifest and "threads" not in manifest["config"]
        outputs[name] = [(out / path).read_bytes() for path in primaries]
    assert outputs["two"] == outputs["default"]
    assert outputs["junk_env"] == outputs["default"]


@pytest.mark.parametrize("summary", [
    {"theta_mean": [[0.0] * 5] * 3 + [[0.0] * 4]},           # ragged rows
    {"theta_mean": [[0.0] * 5] * 3 + [["x"] * 5]},           # not numbers
    [[0.0] * 5] * 4,                                          # not a JSON object
    {"theta_mean": [[0.0] * 5] * 3 + [[0.0] * 4 + [float("nan")]]},  # NaN entry
    {"theta_mean": [[]] * 4},                                 # no targets
], ids=["ragged", "non_numeric", "not_object", "nan", "no_targets"])
def test_predict_malformed_model_exits_2_with_path(sim_dir, tmp_path, capsys, summary):
    model = tmp_path / "posterior_summary.json"
    lio.write_json(model, summary)
    out = tmp_path / "pred"
    code = run_cli("predict", "--x", sim_dir / "X_test.csv", "--model", model,
                   "--out-dir", out)
    assert code == 2
    assert str(model) in capsys.readouterr().err
    assert not (out / "Y_pred.csv").exists()


def test_predict_covariate_mismatch_exits_2(sim_dir, tmp_path, capsys):
    model = tmp_path / "posterior_summary.json"
    lio.write_json(model, {"theta_mean": [[0.0] * 5] * 3})
    out = tmp_path / "pred"
    code = run_cli("predict", "--x", sim_dir / "X_test.csv", "--model", model,
                   "--out-dir", out)
    assert code == 2
    assert "model expects 3 covariates, X has 4 columns" in capsys.readouterr().err
    assert not (out / "Y_pred.csv").exists()


def test_out_dir_below_a_regular_file_exits_4(tmp_path, capsys):
    blocker = tmp_path / "not_a_directory"
    blocker.write_text("", encoding="utf-8")
    code = run_cli("simulate", "--n-train", 20, "--n-test", 10, "--out-dir", blocker / "out")
    assert code == 4
    assert capsys.readouterr().err.startswith("i/o failure: ")


def fail_every_gamma_step(monkeypatch):
    """Make every Gibbs sweep raise NumericalError in its Gamma step."""
    import latent_brrr.gibbs as gibbs
    def fail(state, data, config, streams, shared):
        raise NumericalError("synthetic failure in gamma update")

    monkeypatch.setattr(gibbs, "update_gamma", fail)


def test_cv_exits_3_when_every_grid_point_fails(sim_dir, tmp_path, capsys, monkeypatch):
    fail_every_gamma_step(monkeypatch)
    config = write_config(tmp_path / "config.json", iterations=20, burn_in=5, thin=1)
    plan = tmp_path / "plan.json"
    lio.write_json(plan, {"beta_grid": [0.1, 0.2], "rank_grid": [2], "n_folds": 2, "seed": 1})
    out = tmp_path / "cv"
    code = run_cli("cv", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--plan", plan, "--out-dir", out)
    assert code == 3
    assert "every grid point failed" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"


def test_assoc_exits_3_when_a_fit_fails_on_both_seeds(sim_dir, tmp_path, capsys, monkeypatch):
    fail_every_gamma_step(monkeypatch)
    config = write_config(tmp_path / "config.json", iterations=20, burn_in=5, thin=1)
    out = tmp_path / "assoc"
    code = run_cli("assoc", "--x", sim_dir / "X_train.csv", "--y", sim_dir / "Y_train.csv",
                   "--config", config, "--n-perm", 2, "--out-dir", out)
    assert code == 3
    assert "synthetic failure in gamma update (iteration 1)" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["status"] == "failed"
    assert not (out / "assoc.json").exists()


def test_assoc_rejects_constant_targets_before_any_fit(sim_dir, tmp_path, capsys, monkeypatch):
    import latent_brrr.evaluate as evaluate

    def never(*args, **kwargs):
        raise AssertionError("run_chains called")

    monkeypatch.setattr(evaluate, "run_chains", never)
    X, _ = lio.read_matrix_csv(sim_dir / "X_train.csv")
    zeros = tmp_path / "Y_zero.csv"
    lio.write_matrix_csv(zeros, np.zeros((len(X), 2)), ["y0", "y1"])
    code = run_cli("assoc", "--x", sim_dir / "X_train.csv", "--y", zeros,
                   "--config", write_config(tmp_path / "config.json"), "--n-perm", 2,
                   "--out-dir", tmp_path / "assoc")
    assert code == 2
    assert "targets have zero total variance" in capsys.readouterr().err
