"""Tests of the benchmark's own code: tracer arithmetic, metric names, gates.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _span(i, name, start, end, parent=None, thread=1, **attrs):
    return tracer.Span(i, name, start, end, parent, thread, "rep0", attrs)


def test_self_time_takes_union_of_children_overlapping_on_two_threads():
    parent = _span(0, "tuning.cross_validate", 0.0, 10.0)
    children = [
        _span(1, "gibbs.run_chain", 1.0, 5.0, 0, thread=2),
        _span(2, "gibbs.run_chain", 3.0, 7.0, 0, thread=3),   # overlaps the first
        _span(3, "gibbs.run_chain", 4.0, 4.5, 0, thread=2),   # inside both
        _span(4, "gibbs.run_chain", 9.0, 12.0, 0, thread=3),  # runs past the parent
    ]
    # Covered inside [0, 10]: [1, 7] and [9, 10], so 7 of 10 seconds.
    assert tracer.self_time(parent, children) == pytest.approx(3.0)
    assert tracer.self_time(parent, []) == pytest.approx(10.0)
    serial = [_span(1, "a", 0.0, 4.0, 0), _span(2, "b", 4.0, 10.0, 0)]
    assert tracer.self_time(parent, serial) == pytest.approx(0.0)


def test_pool_thread_spans_attach_to_the_owning_span_and_overlap():
    t = tracer.Tracer()
    chain = t.wrap("gibbs.run_chain", lambda: time.sleep(0.05))

    def owner():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: chain(), range(4)))

    t.wrap("tuning.cross_validate", owner)()
    children = layers.children_of(t.spans)
    root = next(s for s in t.spans if s.name == "tuning.cross_validate")
    chains = children[root.id]
    assert len(t.spans) == 5 and len(chains) == 4
    assert len({c.thread for c in chains}) == 2
    metrics = layers.rep_metrics(t.spans, children)
    assert metrics["tuning.cross_validate.chains"][0] == 4
    assert metrics["tuning.cross_validate.overlap"][0] > 1.5
    assert 0.0 <= tracer.self_time(root, chains) < 0.5 * root.duration


def test_span_ids_survive_many_threads_switching_often():
    t = tracer.Tracer()
    leaf = t.wrap("gibbs.update_omega", lambda: None)
    sweep = t.wrap("gibbs.gibbs_sweep", lambda: [leaf() for _ in range(3)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(lambda: [sweep() for _ in range(250)]) for _ in range(8)]
            for future in futures:
                future.result(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert len(t.spans) == 8 * 250 * 4
    assert [s.id for s in t.spans] == list(range(len(t.spans)))
    by_id = {s.id: s for s in t.spans}
    leaves = [s for s in t.spans if s.name == "gibbs.update_omega"]
    assert all(by_id[s.parent].name == "gibbs.gibbs_sweep" and
               by_id[s.parent].thread == s.thread for s in leaves)


def test_install_wraps_every_namespace_and_uninstall_restores():
    import latent_brrr.cli as cli
    import latent_brrr.evaluate as evaluate
    import latent_brrr.gibbs as gibbs
    import latent_brrr.model as model
    import latent_brrr.theory as theory
    import latent_brrr.tuning as tuning

    sites = [(cli, "run_chain"), (evaluate, "run_chain"), (tuning, "run_chain"),
             (gibbs, "run_chain"), (cli, "permutation_test"), (cli, "cross_validate"),
             (cli, "mse"), (tuning, "mse"), (cli, "generate"), (cli, "check_prop1"),
             (cli, "check_prop2"), (cli, "geweke_test"), (gibbs, "sample_prior"),
             (theory, "sample_prior"), (gibbs, "update_psi_fast"), (cli, "main")]
    originals = {(m.__name__, a): getattr(m, a) for m, a in sites}
    t = tracer.Tracer()
    t.install()
    try:
        for module, attr in sites:
            assert getattr(module, attr).__wrapped__ is originals[(module.__name__, attr)]
        assert hasattr(model.Dataset.__dict__["__post_init__"], "__wrapped__")
        assert not hasattr(gibbs.update_psi_naive, "__wrapped__")
    finally:
        t.uninstall()
    for module, attr in sites:
        assert getattr(module, attr) is originals[(module.__name__, attr)]
    assert not hasattr(model.Dataset.__dict__["__post_init__"], "__wrapped__")


def test_traced_geweke_spans_nest_sweep_updates(tmp_path):
    import latent_brrr.cli as cli

    t = tracer.Tracer()
    t.install()
    try:
        code = cli.main(["verify", "--geweke", "--geweke-iters", "20",
                         "--out-dir", str(tmp_path)])
    finally:
        t.uninstall()
    assert code == 0
    by_id = {s.id: s for s in t.spans}
    sweeps = [s for s in t.spans if s.name == "gibbs.gibbs_sweep"]
    assert len(sweeps) == 20
    assert all(by_id[s.parent].name == "theory.geweke_test" for s in sweeps)
    updates = [s for s in t.spans if s.name == "gibbs.update_psi_fast"]
    assert len(updates) == 20 and all(by_id[s.parent].name == "gibbs.gibbs_sweep"
                                      for s in updates)
    metrics = layers.rep_metrics(t.spans, layers.children_of(t.spans))
    assert {name for name, _ in layers.PER_LAYER} <= set(metrics)


def _every_layer_spans():
    """One synthetic repetition touching every traced function."""
    spans = [_span(0, "cli.main", 0.0, 10.0)]
    for i, (_, _, name) in enumerate(tracer.TRACED[1:], start=1):
        spans.append(_span(i, name, 0.1 * i, 0.1 * i + 0.05, 0, bytes=1000, n_perm=1,
                           n_draws=200, n_covariates=3, truncation=5, batch_size=100))
    owners = [s.id for s in spans
              if s.name in ("evaluate.permutation_test", "tuning.cross_validate")]
    for owner in owners:
        spans.append(_span(len(spans), "gibbs.run_chain", 0.1 * owner, 0.1 * owner + 0.01,
                           owner))
    return spans


def test_metric_names_are_valid_and_within_the_limits():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert 1 <= len(bench["end_to_end"]) <= 16
    assert 1 <= len(bench["per_layer"]) <= 128
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)

    spans = _every_layer_spans()
    reported = layers.rep_metrics(spans, layers.children_of(spans))
    assert {name for name, _ in layers.PER_LAYER} <= set(reported)
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(reported) + list(run.COMMAND_METRICS)
    assert all(NAME.fullmatch(n) for n in names), [n for n in names if not NAME.fullmatch(n)]
    assert len(set(m["name"] for m in bench["end_to_end"] + bench["per_layer"])) == \
        len(bench["end_to_end"]) + len(bench["per_layer"])


class _FailingGate(workloads.Workload):
    name = "failing"
    primary_outputs = ("verify/propositions.json",)

    def make_inputs(self, seed, dest):
        dest.mkdir(parents=True, exist_ok=True)

    def commands(self, inputs, out):
        return [workloads.Command("verify_s", [
            "verify", "--prop2", "--prop2-ranks", "1", "--draws", "200",
            "--out-dir", str(out / "verify")])]

    def gates(self, inputs, out):
        return {"planted.false": lambda: (False, "always fails"),
                "planted.raises": lambda: (1 / 0, "never reached")}


class _HalfSpeedProbe:
    """A host running at half the reference speed throughout."""

    def __init__(self):
        self.times = []

    def follow(self, seconds):
        self.times.append(2 * run.PROBE_REFERENCE_S)

    def factor(self):
        return 2.0


def test_failing_gate_raises_fail_frac_and_every_metric_is_still_printed(
        monkeypatch, tmp_path, capsys):
    def fake_setups(workload, seed, work, tally):
        workload.make_inputs(seed, work / "inputs0")
        return [0.3, 0.2, 0.4]

    monkeypatch.setattr(run, "run_setups", fake_setups)
    monkeypatch.setattr(run, "Probe", _HalfSpeedProbe)
    monkeypatch.setattr(run, "SCRATCH", tmp_path)
    monkeypatch.setitem(workloads.WORKLOADS, "failing", _FailingGate())
    line = run.run_workload("failing", 0, 0, 0, {})
    printed = capsys.readouterr().out

    reps = run.MIN_REPS
    # Per repetition: one CLI call and two failing gates; from the second on,
    # the byte-identical rerun check too.
    assert line["attempted"] == 3 * reps + (reps - 1)
    assert line["failed"] == 2 * reps
    assert line["correct"] is False
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in line["metrics"].values())
    # Times are reported at reference host speed: half of what was measured.
    assert line["metrics"]["setup_s"]["value"] == pytest.approx(0.15)
    for name in (*run.END_TO_END, "verify_s", "fail_frac"):
        assert re.search(rf"^{name}\s", printed, re.M), name
    assert f"({2 * reps} failed of {line['attempted']} attempted)" in printed


def test_probe_spends_its_share_of_a_step_and_measures_each_unit():
    probe = run.Probe()
    probe.follow(0.0)
    assert len(probe.times) == 1
    start = time.perf_counter()
    probe.follow(1.0)
    spent = time.perf_counter() - start
    assert run.PROBE_SHARE <= spent < run.PROBE_SHARE + 2 * max(probe.times)
    assert sum(probe.times[1:]) == pytest.approx(spent, rel=0.05)
    assert probe.factor() == pytest.approx(statistics.fmean(probe.times) /
                                           run.PROBE_REFERENCE_S)


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "study",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
