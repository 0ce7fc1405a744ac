"""Per-layer metrics computed from one repetition's spans.

Counts (``calls``) and times in milliseconds; ``self_ms`` is time not
covered by traced child spans (see ``tracer.self_time``). ``mb_per_s``
figures for io use on-disk file sizes; ``mb_computed`` for check_prop1 is
computed from the batch array shapes, not measured traffic.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from tracer import Span, self_time

# Metrics printed in the JSON line of a traced run: the ones measured on
# every workload. The workload-specific layers (run_chain, io reads,
# evaluate, tuning, theory, independent-noise updates) are in the report.
PER_LAYER = [
    ("cli.main.calls", "count"),
    ("cli.main.self_ms", "ms"),
    ("io.write_json.calls", "count"),
    ("io.write_json.ms", "ms"),
    ("model.sample_prior.calls", "count"),
    ("model.sample_prior.ms", "ms"),
    ("model.Dataset.init.calls", "count"),
    ("model.Dataset.init.ms", "ms"),
    ("gibbs.gibbs_sweep.calls", "count"),
    ("gibbs.gibbs_sweep.ms_p50", "ms"),
    ("gibbs.gibbs_sweep.ms_p99", "ms"),
    ("gibbs.gibbs_sweep.self_ms", "ms"),
    ("gibbs.update_psi_fast.ms", "ms"),
    ("gibbs.update_omega.ms", "ms"),
    ("gibbs.update_gamma.ms", "ms"),
    ("gibbs.update_sigma.ms", "ms"),
    ("gibbs.update_phi_gamma.ms", "ms"),
    ("gibbs.update_delta.ms", "ms"),
]

# io functions whose file sizes are turned into MB/s.
_THROUGHPUT = {"io.read_matrix_csv", "io.write_matrix_csv", "io.file_digest"}

UPDATES = ["update_psi_fast", "update_omega", "update_h", "update_gamma", "update_lambda",
           "update_phi_gamma", "update_phi_lambda", "update_delta", "update_delta_noise",
           "update_sigma"]

# run_chain's wall_time_by_update buckets and the spans that fill each.
BUCKETS = {
    "psi": ("gibbs.update_psi_fast",),
    "omega": ("gibbs.update_omega",),
    "h": ("gibbs.update_h",),
    "gamma": ("gibbs.update_gamma",),
    "lambda": ("gibbs.update_lambda",),
    "phi": ("gibbs.update_phi_gamma", "gibbs.update_phi_lambda"),
    "delta": ("gibbs.update_delta", "gibbs.update_delta_noise"),
    "sigma": ("gibbs.update_sigma",),
}


def children_of(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def rep_metrics(spans: list[Span], children: dict[int, list[Span]]) -> dict[str, tuple[float, str]]:
    """Every per-layer metric whose layer ran in these spans, as (value, unit)."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    out: dict[str, tuple[float, str]] = {}

    def seconds(name):
        return sum(s.duration for s in by_name[name])

    def self_ms(name):
        return 1e3 * sum(self_time(s, children.get(s.id, [])) for s in by_name[name])

    def percentile_ms(name, q):
        return 1e3 * float(np.percentile([s.duration for s in by_name[name]], q))

    def chains_under(span):
        return [c for c in children.get(span.id, []) if c.name == "gibbs.run_chain"]

    if by_name["cli.main"]:
        out["cli.main.calls"] = (len(by_name["cli.main"]), "count")
        out["cli.main.self_ms"] = (self_ms("cli.main"), "ms")

    for name in ("io.read_matrix_csv", "io.write_matrix_csv", "io.file_digest",
                 "io.write_samples", "io.write_json"):
        if by_name[name]:
            secs = seconds(name)
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.ms"] = (1e3 * secs, "ms")
            if name in _THROUGHPUT and secs > 0:
                mb = sum(s.attrs.get("bytes", 0) for s in by_name[name]) / 1e6
                out[f"{name}.mb_per_s"] = (mb / secs, "MB/s")

    for name in ("model.sample_prior", "model.Dataset.init", "simulate.generate",
                 "evaluate.ptve", "evaluate.mse"):
        if by_name[name]:
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.ms"] = (1e3 * seconds(name), "ms")

    for name, tail in (("gibbs.run_chain", 90), ("gibbs.gibbs_sweep", 99)):
        if by_name[name]:
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.ms_p50"] = (percentile_ms(name, 50), "ms")
            out[f"{name}.ms_p{tail}"] = (percentile_ms(name, tail), "ms")
            out[f"{name}.self_ms"] = (self_ms(name), "ms")

    for update in UPDATES:
        name = f"gibbs.{update}"
        if by_name[name]:
            out[f"{name}.calls"] = (len(by_name[name]), "count")
            out[f"{name}.ms"] = (1e3 * seconds(name) / len(by_name[name]), "ms")

    for span in by_name["evaluate.permutation_test"]:
        chains = chains_under(span)
        out["evaluate.permutation_test.ms"] = (1e3 * span.duration, "ms")
        out["evaluate.permutation_test.chains"] = (len(chains), "count")
        out["evaluate.permutation_test.retries"] = (
            len(chains) - (span.attrs["n_perm"] + 1), "count")
        out["evaluate.permutation_test.overlap"] = (
            sum(c.duration for c in chains) / span.duration, "ratio")

    for span in by_name["tuning.cross_validate"]:
        chains = chains_under(span)
        out["tuning.cross_validate.ms"] = (1e3 * span.duration, "ms")
        out["tuning.cross_validate.chains"] = (len(chains), "count")
        out["tuning.cross_validate.failed_folds"] = (
            sum(1 for c in chains if "error" in c.attrs), "count")
        out["tuning.cross_validate.overlap"] = (
            sum(c.duration for c in chains) / span.duration, "ratio")

    for span in by_name["theory.check_prop1"]:
        a = span.attrs
        # float64 arrays each draw allocates: the Psi draw and its scaled
        # copy (2*P*T), x and its scaled copy (2*P), eight T-wide arrays.
        per_draw = 8 * (2 * a["n_covariates"] * a["truncation"]
                        + 2 * a["n_covariates"] + 8 * a["truncation"])
        out["theory.check_prop1.ms"] = (1e3 * span.duration, "ms")
        out["theory.check_prop1.draws_per_s"] = (a["n_draws"] / span.duration, "1/s")
        out["theory.check_prop1.mb_computed"] = (per_draw * a["n_draws"] / 1e6, "MB")

    if by_name["theory.check_prop2"]:
        draws = sum(s.attrs["n_draws"] for s in by_name["theory.check_prop2"])
        out["theory.check_prop2.ms"] = (1e3 * seconds("theory.check_prop2"), "ms")
        out["theory.check_prop2.draws_per_s"] = (draws / seconds("theory.check_prop2"), "1/s")

    if by_name["theory.geweke_test"]:
        out["theory.geweke_test.ms"] = (1e3 * seconds("theory.geweke_test"), "ms")
        out["theory.geweke_test.self_ms"] = (self_ms("theory.geweke_test"), "ms")

    return out


def bucket_seconds(spans: list[Span]) -> dict[str, float]:
    """Span totals per wall_time_by_update bucket, for buckets that ran."""
    totals: dict[str, float] = {}
    for bucket, names in BUCKETS.items():
        matched = [s.duration for s in spans if s.name in names]
        if matched:
            totals[bucket] = sum(matched)
    return totals
