"""Tests for the proposition checks and the Geweke validation harness."""

import tracemalloc

import numpy as np
import pytest

import latent_brrr.gibbs as gibbs
from latent_brrr.errors import ConfigurationError, NumericalError
from latent_brrr.model import Dims, ModelConfig, Variant
from latent_brrr.theory import (
    GEWEKE_CHAINS,
    GEWEKE_MIN_SWEEPS,
    _chain_mean_z,
    check_prop1,
    check_prop2,
    default_geweke_config,
    gamma_ratio_two_down,
    gamma_ratio_two_down_direct,
    geweke_test,
    prediction_variance_limit,
    truncation_deficit,
)


# ---------------------------------------------------------------------------
# closed forms


def test_prediction_variance_reference_value():
    # a1=3, a2=4, nu=3, P=30, unit variance: 3 * 30 * (1/2) / (5/6) = 54.
    assert prediction_variance_limit(3.0, 4.0, 3.0, 1.0, 30) == pytest.approx(54.0, abs=1e-12)


def test_prediction_variance_zero_covariates():
    assert prediction_variance_limit(3.0, 4.0, 3.0, 1.0, 0) == 0.0


def test_prediction_variance_rejects_divergent_configs():
    with pytest.raises(ConfigurationError):
        prediction_variance_limit(2.0, 4.0, 3.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        prediction_variance_limit(3.0, 3.0, 3.0, 1.0, 5)
    with pytest.raises(ConfigurationError):
        prediction_variance_limit(3.0, 4.0, 2.0, 1.0, 5)


def test_gamma_ratio_identity_matches_direct_evaluation():
    for a in np.linspace(3.0 + 1e-6, 50.0, 200):
        stable = gamma_ratio_two_down(a)
        direct = gamma_ratio_two_down_direct(a)
        assert abs(stable - direct) <= 1e-12 * direct


def test_truncation_deficit_closed_form():
    assert truncation_deficit(4.0, 3) == pytest.approx(1.0 / 216.0, rel=1e-14)
    assert truncation_deficit(4.0, 0) == 1.0


def test_truncation_deficit_monotone_in_rank_and_a2():
    ranks = np.arange(0, 8)
    vals = [truncation_deficit(4.0, r) for r in ranks]
    assert np.all(np.diff(vals) < 0)
    a2s = np.linspace(3.2, 12.0, 25)
    vals = [truncation_deficit(a, 2) for a in a2s]
    assert np.all(np.diff(vals) < 0)


# ---------------------------------------------------------------------------
# Monte-Carlo checks (desk-scale draws; the acceptance suite runs them full-size)


def test_prop1_monte_carlo_agrees_with_closed_form():
    # Desk-scale draw count: assert the 3-SE rule here; the acceptance suite
    # runs the full million draws against the 5 percent tolerance.
    report = check_prop1(3.0, 4.0, 3.0, n_covariates=30, truncation=50,
                         n_draws=200_000, rng=np.random.default_rng(101),
                         tolerance=0.05 * 54.0)
    assert report.analytic_value == pytest.approx(54.0, abs=1e-12)
    assert report.passed
    gap = abs(report.analytic_value - report.empirical_value)
    assert report.passed == (gap <= max(3 * report.mc_standard_error, report.tolerance))


def test_prop1_standard_error_is_calibrated():
    # Each draw is finite-variance, so the reported SE is a real standard
    # error: over 20 seeds about 0.05 land beyond 3 SEs.
    z_scores = []
    for seed in range(20):
        report = check_prop1(3.0, 4.0, 3.0, n_covariates=30, truncation=50,
                             n_draws=20_000, rng=np.random.default_rng(seed))
        z_scores.append((report.empirical_value - report.analytic_value)
                        / report.mc_standard_error)
    assert np.sum(np.abs(z_scores) > 3) <= 1, np.round(z_scores, 2)


def test_prop1_memory_does_not_grow_with_covariates():
    # A (4000, 300, 50) float64 Psi batch alone would be 480 MB; the
    # projected draw needs O(batch * truncation) memory whatever P is.
    tracemalloc.start()
    try:
        report = check_prop1(3.0, 4.0, 3.0, n_covariates=300, truncation=50,
                             n_draws=20_000, rng=np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 40e6
    assert report.analytic_value == pytest.approx(540.0, abs=1e-9)


def test_prop1_memory_does_not_grow_with_truncation():
    # 1,000 draws as one (1000, 5000) batch would hold 40 MB per array; the
    # batch shrinks so each array holds at most 200,000 values.
    tracemalloc.start()
    try:
        check_prop1(3.0, 4.0, 3.0, n_covariates=30, truncation=5000,
                    n_draws=1000, rng=np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20e6


def test_prop1_zero_covariate_report():
    report = check_prop1(3.0, 4.0, 3.0, n_covariates=0)
    assert report.analytic_value == 0.0 and report.empirical_value == 0.0
    assert report.passed


@pytest.mark.parametrize("rank", [1, 2])
def test_prop2_monte_carlo_within_three_se(rank):
    report = check_prop2(4.0, rank, n_draws=200_000,
                         rng=np.random.default_rng(7 + rank))
    expected = (1.0 / 6.0) ** rank
    assert report.analytic_value == pytest.approx(expected, rel=1e-14)
    assert abs(report.empirical_value - expected) <= 3 * report.mc_standard_error
    assert report.passed


def test_prop2_standard_error_is_calibrated():
    # 30 independent checks: with a calibrated standard error about 0.1 of
    # them land beyond 3 SEs. An estimator with infinite variance reports
    # SEs that are too small and puts several there.
    z_scores = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        for rank in (1, 2, 3):
            report = check_prop2(4.0, rank, n_draws=200_000, rng=rng)
            z_scores.append((report.empirical_value - report.analytic_value)
                            / report.mc_standard_error)
    assert np.sum(np.abs(z_scores) > 3) <= 1, np.round(z_scores, 2)


def test_prop2_report_does_not_depend_on_batch_size():
    reports = [check_prop2(4.0, 2, n_draws=10_000, rng=np.random.default_rng(3),
                           batch_size=batch)
               for batch in (4000, 10_000)]
    assert reports[0] == reports[1]


def test_prop2_ranks_share_one_draw_and_match_single_rank_calls():
    ranks = [3, 0, 1, 2]
    kwargs = dict(n_draws=10_001, batch_size=3000)
    reports = check_prop2(4.0, ranks, rng=np.random.default_rng(5), **kwargs)
    assert len(reports) == len(ranks)
    for rank, report in zip(ranks, reports):
        assert report == check_prop2(4.0, rank, rng=np.random.default_rng(5), **kwargs)
    # Every rank is checked before the first draw.
    rng = np.random.default_rng(5)
    before = rng.bit_generator.state
    for bad in ([1, 50], [2, -1]):
        with pytest.raises(ConfigurationError, match="rank"):
            check_prop2(4.0, bad, rng=rng, **kwargs)
    assert rng.bit_generator.state == before


def test_prediction_variance_rejects_bad_var_x():
    for var_x in (-1.0, np.nan, np.inf, [1.0, -0.5]):
        with pytest.raises(ConfigurationError, match="var_x"):
            prediction_variance_limit(3.0, 4.0, 3.0, var_x, 2)


@pytest.mark.parametrize("check", [
    lambda: check_prop1(3.0, 4.0, 3.0, n_covariates=3, n_draws=1000, batch_size=0),
    lambda: check_prop2(4.0, 1, n_draws=1000, batch_size=0),
])
def test_prop_checks_reject_empty_batches(check):
    with pytest.raises(ConfigurationError, match="batch_size"):
        check()


def test_prop2_rank_must_stay_below_reference():
    with pytest.raises(ConfigurationError):
        check_prop2(4.0, 50, reference_truncation=50, n_draws=1000)


# ---------------------------------------------------------------------------
# Geweke harness


def small_dims():
    return Dims(n_samples=20, n_covariates=3, n_targets=4, rank=2)


def test_geweke_requires_iterations():
    with pytest.raises(ConfigurationError):
        geweke_test(default_geweke_config(), small_dims(), 0, np.random.default_rng(0))


def test_geweke_statistic_set_and_names():
    report = geweke_test(default_geweke_config(), small_dims(), 200,
                         np.random.default_rng(1))
    # (S1*K + P*S1 + S1 + K + 1) statistics, four test functions each
    n_stats = 2 * 4 + 3 * 2 + 2 + 4 + 1
    assert len(report.z_scores) == 4 * n_stats
    suffixes = ("mean", "arctan", "above_median", "outside_2s")
    assert {name.rsplit(":", 1)[1] for name in report.z_scores} == set(suffixes)
    for suffix in suffixes:
        assert f"tau[0]:{suffix}" in report.z_scores
        assert f"y[0,0]:{suffix}" in report.z_scores
    assert np.all(np.isfinite(list(report.z_scores.values())))


def test_geweke_reruns_identically():
    first, second = (geweke_test(default_geweke_config(), small_dims(), 100,
                                 np.random.default_rng(7)) for _ in range(2))
    assert first.z_scores == second.z_scores


@pytest.mark.parametrize("n_iter, n_chains, length", [
    (1, 2, 1), (20, 20, 20), (50, 32, 25), (1000, 32, 32), (3000, 32, 94),
])
def test_geweke_chain_count_and_length(n_iter, n_chains, length):
    # C = min(GEWEKE_CHAINS, n_iter), at least two, of ceil(n_iter / C)
    # sweeps, but no fewer than min(n_iter, GEWEKE_MIN_SWEEPS).
    report = geweke_test(default_geweke_config(), small_dims(), n_iter,
                         np.random.default_rng(8))
    assert (GEWEKE_CHAINS, GEWEKE_MIN_SWEEPS) == (32, 25)
    assert (report.n_iter, report.n_chains, report.iterations_per_chain) == \
        (n_iter, n_chains, length)
    assert set(report.as_dict()) >= {"n_iter", "n_chains", "iterations_per_chain",
                                     "fraction_within_4", "max_abs_z", "z_scores"}
    assert len(report.z_scores) == 4 * (2 * 4 + 3 * 2 + 2 + 4 + 1)
    assert not np.isnan(list(report.z_scores.values())).any()


def test_chain_mean_z_is_calibrated_on_autocorrelated_chains():
    # Stationary AR(1) chains, phi = 0.9, against iid draws of their N(0, 1 /
    # (1 - phi^2)) marginal: the chain-mean z spreads like a standard normal
    # (a t with C - 1 = 31 degrees of freedom), where treating the chain
    # draws as iid understates their standard error about threefold.
    rng = np.random.default_rng(11)
    phi, length, n_chains, reps = 0.9, 200, 32, 400
    sd = 1.0 / np.sqrt(1.0 - phi**2)
    chains = np.empty((length, n_chains, reps))
    chains[0] = sd * rng.standard_normal((n_chains, reps))
    for t in range(1, length):
        chains[t] = phi * chains[t - 1] + rng.standard_normal((n_chains, reps))
    iid = sd * rng.standard_normal((length * n_chains, reps))
    z = _chain_mean_z(iid, chains)
    assert z.shape == (reps,)
    assert 0.85 < z.std() < 1.2
    assert abs(z.mean()) < 0.2
    flat = chains.reshape(length * n_chains, reps)
    naive = (iid.mean(axis=0) - flat.mean(axis=0)) / np.sqrt(
        (iid.var(axis=0, ddof=1) + flat.var(axis=0, ddof=1)) / len(flat))
    assert naive.std() > 2.5


def test_geweke_decomposes_the_gram_matrix_once(monkeypatch):
    # X is fixed across the successive-conditional iterations, so X'X is
    # eigendecomposed once, however many sweeps run; the sweeps' own eigh
    # calls take S1 x S1 matrices (S1 = 2 here, P = 3).
    dims = small_dims()
    calls = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if a.shape[-1] == dims.n_covariates:
            calls.append(a.shape)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    geweke_test(default_geweke_config(), dims, 50, np.random.default_rng(1))
    assert len(calls) == 1


def test_geweke_correct_sampler_passes_desk_scale():
    report = geweke_test(default_geweke_config(), small_dims(), 15_000,
                         np.random.default_rng(2))
    assert report.fraction_within(4.0) >= 0.95


def test_geweke_detects_corrupted_delta_update(corrupted_delta_step):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gibbs, "update_delta", corrupted_delta_step)
        report = geweke_test(default_geweke_config(), small_dims(), 15_000,
                             np.random.default_rng(3))
    assert report.max_abs_z() > 6.0


def test_geweke_accepts_other_variants():
    # Short-run smoke test of the raw means' z-scores. The bounded test
    # functions are checked on the latent-noise variant, here and at 1e5
    # iterations in the acceptance suite.
    config = ModelConfig(variant=Variant.NO_NOISE, rank=2, nu=6.0, a_sigma=5.0,
                         b_sigma=1.0, iterations=2, burn_in=0, thin=1)
    report = geweke_test(config, small_dims(), 20_000, np.random.default_rng(4))
    mean_zs = [v for k, v in report.z_scores.items() if k.endswith(":mean")]
    assert np.mean(np.abs(mean_zs) < 4.0) >= 0.95


def independent_noise_geweke_config():
    # a1 = a2 = 6 and nu = 10 give every statistic a finite fourth moment,
    # so the chain-mean standard errors of the raw means settle quickly.
    return ModelConfig(variant=Variant.INDEPENDENT_NOISE, rank=2, noise_rank=2,
                       a1=6.0, a2=6.0, nu=10.0, a_sigma=5.0, b_sigma=1.0,
                       iterations=2, burn_in=0, thin=1)


def test_geweke_accepts_independent_noise_variant():
    report = geweke_test(independent_noise_geweke_config(), small_dims(), 20_000,
                         np.random.default_rng(5))
    assert "lambda[1,3]:mean" in report.z_scores
    assert "tau_noise[1]:mean" in report.z_scores
    mean_zs = [v for k, v in report.z_scores.items() if k.endswith(":mean")]
    assert np.mean(np.abs(mean_zs) < 4.0) >= 0.95


def test_geweke_detects_wrong_shape_delta_noise_update(monkeypatch):
    def forget_h_entries(state, data, config, streams, shared):
        # The shape parameter counts the Lambda entries but not the H rows,
        # while the rate keeps both. H'H comes from the sweep's rows: a
        # statistics sweep leaves state.H None.
        H = gibbs._rows(state, data, config, shared)[3]
        quads = (state.phi_lambda * state.Lambda**2).sum(axis=-1) + (H**2).sum(axis=-2)
        state.delta_noise = gibbs._draw_mgp_delta(state.delta_noise, quads,
                                                  state.Lambda.shape[-1],
                                                  config.a1, config.a2, streams)

    monkeypatch.setattr(gibbs, "update_delta_noise", forget_h_entries)
    report = geweke_test(independent_noise_geweke_config(), small_dims(), 20_000,
                         np.random.default_rng(6))
    assert report.max_abs_z() > 6.0


@pytest.mark.parametrize("field, value, message", [
    ("sigma_sq", np.nan, "non-finite precision in gamma update"),
    ("phi_gamma", -1e12, "Cholesky factorization failed in gamma update"),
])
def test_geweke_raises_a_failure_on_its_chain(monkeypatch, field, value, message):
    # A failure on one of the stacked chains raises from the sweep where it
    # occurs, so the harness stops there. 50 iterations are 25 sweeps of 32
    # chains.
    real = gibbs.update_gamma
    calls = []

    def corrupted(state, data, config, streams, shared):
        calls.append(1)
        if len(calls) == 5:
            corrupt = getattr(state, field).copy()
            corrupt[3] = value
            setattr(state, field, corrupt)
        real(state, data, config, streams, shared)

    monkeypatch.setattr(gibbs, "update_gamma", corrupted)
    with pytest.raises(NumericalError, match=f"^{message}$"):
        geweke_test(default_geweke_config(), small_dims(), 50, np.random.default_rng(1))
    assert len(calls) == 5
