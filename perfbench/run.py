"""Benchmark: run one workload through ``latent_brrr.cli.main`` and report.

    python3 perfbench/run.py --workload study --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

``--trace 0`` times repetitions of the workload's command sequence in this
process with nothing patched and reports the end-to-end metrics (medians
over repetitions; ``setup_s`` is the median of three set-ups, each in a
fresh process; ``peak_rss_mb`` is this process's peak through the first
repetition). ``--trace 1`` wraps the package's public functions
(tracer.py) and reports per-layer metrics from traced repetitions, the
tracing overhead against one untraced repetition, and the tracer's totals
next to each fit's ``wall_time_by_update`` buckets.

The times in the JSON line (``setup_s``, ``wall_s``) are divided by the
host's measured slowdown during the run (see ``Probe``); the report prints
each median as measured next to its adjusted value.

BLAS is pinned to one thread and LATENT_BRRR_THREADS to the number of
usable cores before numpy is imported. Repetitions start until ``--seconds``
have passed: at least two untraced, or one traced and one untraced.
The first repetition pays first-call costs (it ran 6-11% slower than the
rest), as every fresh CLI process does, and is timed like the others.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation is a CLI invocation, a set-up
process, or a correctness gate; it fails on a non-zero exit or a false
gate. Scratch files live under ``.perfbench/`` in the repository root and
are removed at exit, except ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_REPS = 2
SETUP_TIMEOUT_S = 30

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
COMMAND_METRICS = ("fit_s", "predict_s", "cv_s", "assoc_s", "verify_s")

# On a shared virtual machine the host's speed moves in phases of a minute
# or more: on the 2-vCPU VM this benchmark was tuned on, repetitions of
# wide ran 4.5 s in one phase and 7 s in the next, and repetitions within
# a run cannot average that out. So every timed command is followed by
# probe units: a fixed mix of numpy draws, a matrix product, a small
# Cholesky factor and an interpreter loop, none of it from the package.
# A time is reported as measured, divided by the mean probe unit of the
# same run over PROBE_REFERENCE_S (about one unit's time on that VM). The
# probe runs for a fixed share of each command's time, so its mean weighs
# the host's phases as the workload met them. A change to the program
# moves the result; a change in the host's speed mostly does not: over
# four-minute stretches, probe and workload times correlated 0.6 to 0.9,
# and over sets of ten runs per workload the spread (interquartile range
# over median) of wall_s was 5-35% as measured and 4-21% adjusted.
PROBE_SHARE = 0.2
PROBE_REFERENCE_S = 0.1


def digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def pin_environment() -> dict[str, str]:
    """Pin thread counts for this process and its children; call before numpy loads."""
    pins = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "LATENT_BRRR_THREADS": str(len(os.sched_getaffinity(0)))}
    os.environ.update(pins)
    return pins


def _getconf(name: str) -> int | None:
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def environment(seed: int, pins: dict[str, str]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "l2_bytes_per_core": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"), "seed": seed, **pins,
    }


class Tally:
    """Attempted and failed operations, with per-gate pass counts for the report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gates: dict[str, list] = {}
        self.samples: dict[str, list] = {}

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED {name}: {detail}", file=sys.stderr)
        entry = self.gates.setdefault(name, [0, 0, ""])
        entry[0] += ok
        entry[1] += 1
        entry[2] = detail


class Probe:
    """Probe units run after timed commands; their mean measures host speed."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((2000, 60))
        self._b = rng.standard_normal((60, 60)) / 60
        s = rng.standard_normal((30, 30))
        self._s = s @ s.T + 30 * np.eye(30)
        self.times: list[float] = []

    def unit(self) -> float:
        import numpy as np

        rng = np.random.default_rng(1)
        start = time.perf_counter()
        for _ in range(25):
            residual = self._a - rng.standard_normal(self._a.shape) @ self._b
            (residual * residual).sum()
            np.linalg.cholesky(self._s)
            sum(i * i for i in range(400))
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed

    def follow(self, seconds: float) -> None:
        """Probe for PROBE_SHARE of a command that took ``seconds`` (one unit at least)."""
        spent = 0.0
        while not spent or spent < PROBE_SHARE * seconds:
            spent += self.unit()

    def factor(self) -> float:
        """How much slower than the reference the host ran; 1.0 at reference speed."""
        return statistics.fmean(self.times) / PROBE_REFERENCE_S


def invoke(argv: list[str]) -> int:
    """Exit code of one CLI invocation; a crash counts as a failed operation."""
    import latent_brrr.cli as cli

    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def run_rep(workload, inputs: Path, out: Path, tally: Tally, reference: dict,
            after_command=None) -> dict:
    """One pass of the workload's commands, then its gates; returns timings."""
    times: dict[str, float] = {}
    for command in workload.commands(inputs, out):
        # Each command starts from a collected heap, as in a fresh CLI
        # process, so no collection of the previous command's garbage lands
        # in its timing (when one would run depends on the probe units).
        gc.collect()
        start = time.perf_counter()
        code = invoke(command.argv)
        elapsed = time.perf_counter() - start
        times[command.group] = times.get(command.group, 0.0) + elapsed
        tally.record(f"cli {command.argv[0]}", code == 0, f"exit code {code}")
        if after_command is not None:
            after_command(command, elapsed)
    times["wall_s"] = sum(times.values())

    for name, check in workload.gates(inputs, out).items():
        try:
            ok, detail = check()
        except Exception as exc:
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        tally.record(name, bool(ok), detail)
    try:
        times.update(workload.observations(inputs, out))
    except Exception as exc:
        print(f"observations unavailable: {type(exc).__name__}: {exc}", file=sys.stderr)
    try:
        outputs = digest(out / name for name in workload.primary_outputs)
    except OSError as exc:
        outputs = f"unreadable: {exc}"
    if "outputs" in reference:
        tally.record("rerun.byte_identical", outputs == reference["outputs"],
                     "primary outputs match the first repetition")
    else:
        reference["outputs"] = outputs
    return times


def run_setups(workload, seed: int, work: Path, tally: Tally) -> list[float]:
    """Time fresh-process set-ups; the first one's files are used."""
    times, digests = [], []
    for _ in range(SETUP_REPEATS):
        dest = work / f"inputs{len(times)}"
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "make_inputs.py"), "--workload", workload.name,
                 "--seed", str(seed), "--out", str(dest)],
                capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
            code, err = proc.returncode, proc.stderr
        except subprocess.TimeoutExpired:
            code, err = -1, f"timed out after {SETUP_TIMEOUT_S} s"
        times.append(time.perf_counter() - start)
        tally.record("setup", code == 0, f"exit code {code} {err[-500:]}")
        if dest.is_dir():
            digests.append(digest(sorted(p for p in dest.iterdir() if p.is_file())))
    tally.record("setup.deterministic", len(set(digests)) == 1 and len(digests) == len(times),
                 f"{len(set(digests))} distinct input sets from {len(times)} set-ups")
    return times


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _stats(values: list[float]) -> str:
    return f"median of {len(values)} (min {min(values):.4g}, max {max(values):.4g})"


def _report_header(workload, env: dict, trace: int) -> None:
    print(f"== {workload.name} (seed {env['seed']}, trace {trace})")
    print("env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    l2, l3 = env["l2_bytes_per_core"], env["l3_bytes"]
    caches = ", ".join(f"{n} {b / 2**20:.0f} MiB" for n, b in (("L2/core", l2), ("L3", l3)) if b)
    sizes = ", ".join(f"{k} {v:.2f} MB" for k, v in workload.sizes().items())
    print(f"sizes (computed, float64): {sizes} | {caches}")


def _report_tally(tally: Tally) -> None:
    for name, (passed, total, detail) in tally.gates.items():
        print(f"check {name}: {passed}/{total} passed ({detail})")
    frac = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"fail_frac    {frac:.4f} ratio  ({tally.failed} failed of {tally.attempted} attempted)")


def measure(workload, seed: int, seconds: int, work: Path, tally: Tally) -> dict:
    """Untraced run: the end-to-end metrics."""
    setup_times = run_setups(workload, seed, work, tally)
    probe = Probe()
    inputs, out = work / "inputs0", work / "out"
    reps, reference = [], {}
    start = time.perf_counter()
    while True:
        reps.append(run_rep(workload, inputs, out, tally, reference,
                            lambda command, elapsed: probe.follow(elapsed)))
        if len(reps) == 1:
            # Later repetitions in the same process sometimes grew the heap
            # (wide: 112 MB instead of 100 MB in about one run in four that
            # reached a third repetition), which a fresh CLI process never sees.
            peak_rss_mb = _peak_rss_mb()
        if len(reps) >= MIN_REPS and time.perf_counter() - start > seconds:
            break
    values = {"setup_s": setup_times, "wall_s": [r["wall_s"] for r in reps],
              "peak_rss_mb": [peak_rss_mb]}
    for name in COMMAND_METRICS:
        if name in reps[0]:
            values[name] = [r[name] for r in reps]
    factor = probe.factor()
    print(f"host speed: probe unit mean {PROBE_REFERENCE_S * factor:.4f} s over "
          f"{len(probe.times)} units (reference {PROBE_REFERENCE_S} s); times below "
          f"are medians as measured, then divided by {factor:.4f}")
    adjusted = {}
    for name, samples in values.items():
        unit = END_TO_END.get(name, "s")
        raw = statistics.median(samples)
        line = f"{name:<12} {raw:.6g} {unit}  {_stats(samples)}"
        if unit == "s":
            adjusted[name] = raw / factor
            line += f"; at reference host speed {adjusted[name]:.6g} s"
        print(line)
    for key in sorted(k for k in reps[0] if k not in values):
        print(f"{key:<12} {reps[0][key]}  (recorded, not a timing)")
    tally.samples = {**values, "probe_unit_s": probe.times}
    return {name: {"value": adjusted.get(name, statistics.median(values[name])), "unit": unit}
            for name, unit in END_TO_END.items()}


def trace_run(workload, seed: int, seconds: int, work: Path, tally: Tally,
              results: Path) -> dict:
    """Traced run: the per-layer metrics."""
    import latent_brrr.cli  # noqa: F401  (every package module, before patching)
    import layers
    from tracer import Tracer

    tracer = Tracer()
    inputs, out = work / "inputs0", work / "out"
    inputs.mkdir(parents=True)
    tracer.install()
    try:
        workload.make_inputs(seed, inputs)
    finally:
        tracer.uninstall()
    reference: dict = {}

    comparisons = []
    mark = [0]

    def after_command(command, elapsed):
        # The spans since the previous command belong to this one (a fit
        # runs on one thread); pair them with the fit's own bucket timers.
        argv = command.argv
        if argv[0] == "fit":
            manifest = Path(argv[argv.index("--out-dir") + 1]) / "manifest.json"
            try:
                buckets = json.loads(manifest.read_text())["wall_time_by_update"]
            except (OSError, ValueError, KeyError):
                buckets = None
            if buckets is not None:
                comparisons.append((Path(argv[argv.index("--config") + 1]).stem,
                                    layers.bucket_seconds(tracer.spans[mark[0]:]), buckets))
        mark[0] = len(tracer.spans)

    # The untraced repetition runs second, so neither side pays first-run costs alone.
    reps, untraced = [], None
    start = time.perf_counter()
    while untraced is None or time.perf_counter() - start < seconds:
        if len(reps) == 1 and untraced is None:
            untraced = run_rep(workload, inputs, out, tally, reference)["wall_s"]
            continue
        tracer.run = f"rep{len(reps)}"
        mark[0] = len(tracer.spans)
        tracer.install()
        try:
            reps.append(run_rep(workload, inputs, out, tally, reference, after_command))
        finally:
            tracer.uninstall()
    tracer.write(results.with_suffix(".spans.jsonl"))

    children = layers.children_of(tracer.spans)
    per_rep = [layers.rep_metrics([s for s in tracer.spans if s.run == f"rep{i}"], children)
               for i in range(len(reps))]
    setup = layers.rep_metrics([s for s in tracer.spans if s.run == "setup"], children)
    names = [n for n in per_rep[0] if all(n in m for m in per_rep)]
    table = {n: (statistics.median(m[n][0] for m in per_rep), per_rep[0][n][1]) for n in names}
    if "simulate.generate.ms" in setup:
        table["simulate.generate.ms"] = setup["simulate.generate.ms"]

    print(f"per-layer metrics, median over {len(reps)} traced repetition(s):")
    for name, (value, unit) in table.items():
        print(f"  {name:<42} {value:.6g} {unit}")
    traced_wall = statistics.median(r["wall_s"] for r in reps)
    if untraced is not None:
        print(f"tracing overhead: traced wall_s {traced_wall:.4f} s - untraced wall_s "
              f"{untraced:.4f} s = {traced_wall - untraced:+.4f} s")
    for config, spans, buckets in comparisons:
        shared = [b for b in spans if b in buckets]
        pairs = ", ".join(f"{b} {1e3 * spans[b]:.1f}/{1e3 * buckets[b]:.1f}" for b in shared)
        worst = max((abs(spans[b] - buckets[b]) / buckets[b] for b in shared), default=0.0)
        ok = set(spans) == set(buckets) - {"setup"} and all(
            abs(spans[b] - buckets[b]) <= max(0.15 * buckets[b], 2e-3) for b in shared)
        tally.record("tracer.matches_manifest", ok, f"{config}: worst relative gap {worst:.3f}")
        print(f"  {config} update spans/manifest buckets, ms: {pairs}")
    return {name: {"value": table.get(name, (0.0, unit))[0], "unit": unit}
            for name, unit in layers.PER_LAYER}


def run_workload(name: str, seed: int, seconds: int, trace: int, pins: dict) -> dict:
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    env = environment(seed, pins)
    _report_header(workload, env, trace)
    tag = f"{name}-seed{seed}-trace{trace}"
    work = SCRATCH / tag
    results = SCRATCH / "results" / f"{tag}.json"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    results.parent.mkdir(parents=True, exist_ok=True)
    tally = Tally()
    try:
        if trace:
            metrics = trace_run(workload, seed, seconds, work, tally, results)
        else:
            metrics = measure(workload, seed, seconds, work, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    _report_tally(tally)
    line = {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics}
    results.write_text(json.dumps({"env": env, "checks": tally.gates,
                                   "samples": tally.samples, **line}, indent=2))
    return line


def run_all(seed: int, seconds: int, trace: int) -> dict:
    """Every workload, each in its own process; metric names get a workload prefix."""
    from workloads import WORKLOADS

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", str(trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="latent-brrr benchmark")
    parser.add_argument("--workload", required=True, choices=["study", "wide", "resample",
                                                              "verify", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "latent_brrr" / "cli.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'latent_brrr'}; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    pins = pin_environment()
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        line = run_all(args.seed, args.seconds, args.trace)
    else:
        line = run_workload(args.workload, args.seed, args.seconds, args.trace, pins)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
