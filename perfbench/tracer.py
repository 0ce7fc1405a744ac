"""Span recorder that wraps the package's public functions from outside.

``Tracer.install()`` replaces each traced function in *every* ``latent_brrr``
namespace that holds it, so calls made through a name imported with
``from latent_brrr.gibbs import run_chain`` (as ``cli``, ``evaluate`` and
``tuning`` do) are seen as well as calls through the defining module.
Nothing under ``src/`` is modified; ``uninstall()`` restores the originals.

Spans are kept in memory and written out once at the end. A span opened on
a pool thread with no open span of its own takes as parent the innermost
span open on the thread that installed the tracer (the ``cross_validate``
or ``permutation_test`` call that owns the pool).
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import threading
import time
from dataclasses import asdict, dataclass, field

# (module, attribute, span name). Class attributes use "Class.method".
TRACED = [
    ("latent_brrr.cli", "main", "cli.main"),
    ("latent_brrr.io", "read_matrix_csv", "io.read_matrix_csv"),
    ("latent_brrr.io", "write_matrix_csv", "io.write_matrix_csv"),
    ("latent_brrr.io", "file_digest", "io.file_digest"),
    ("latent_brrr.io", "write_samples", "io.write_samples"),
    ("latent_brrr.io", "write_json", "io.write_json"),
    ("latent_brrr.model", "sample_prior", "model.sample_prior"),
    ("latent_brrr.model", "Dataset.__post_init__", "model.Dataset.init"),
    ("latent_brrr.simulate", "generate", "simulate.generate"),
    ("latent_brrr.gibbs", "run_chain", "gibbs.run_chain"),
    ("latent_brrr.gibbs", "gibbs_sweep", "gibbs.gibbs_sweep"),
    ("latent_brrr.gibbs", "update_psi_fast", "gibbs.update_psi_fast"),
    ("latent_brrr.gibbs", "update_omega", "gibbs.update_omega"),
    ("latent_brrr.gibbs", "update_h", "gibbs.update_h"),
    ("latent_brrr.gibbs", "update_gamma", "gibbs.update_gamma"),
    ("latent_brrr.gibbs", "update_lambda", "gibbs.update_lambda"),
    ("latent_brrr.gibbs", "update_phi_gamma", "gibbs.update_phi_gamma"),
    ("latent_brrr.gibbs", "update_phi_lambda", "gibbs.update_phi_lambda"),
    ("latent_brrr.gibbs", "update_delta", "gibbs.update_delta"),
    ("latent_brrr.gibbs", "update_delta_noise", "gibbs.update_delta_noise"),
    ("latent_brrr.gibbs", "update_sigma", "gibbs.update_sigma"),
    ("latent_brrr.evaluate", "permutation_test", "evaluate.permutation_test"),
    ("latent_brrr.evaluate", "ptve", "evaluate.ptve"),
    ("latent_brrr.evaluate", "mse", "evaluate.mse"),
    ("latent_brrr.tuning", "cross_validate", "tuning.cross_validate"),
    ("latent_brrr.theory", "check_prop1", "theory.check_prop1"),
    ("latent_brrr.theory", "check_prop2", "theory.check_prop2"),
    ("latent_brrr.theory", "geweke_test", "theory.geweke_test"),
]

# Functions whose first argument is a file path; the span records its size.
_PATH_ARG = {"io.read_matrix_csv", "io.write_matrix_csv", "io.file_digest",
             "io.write_samples", "io.write_json"}

# Arguments (defaults applied) that a span records for the per-layer metrics.
_RECORDED_ARGS = {
    "evaluate.permutation_test": ("n_perm",),
    "theory.check_prop1": ("n_draws", "n_covariates", "truncation", "batch_size"),
    "theory.check_prop2": ("n_draws",),
}


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    run: str
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _interval_union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(span: Span, children: list[Span]) -> float:
    """Span duration minus the union of its children's intervals.

    Children that ran concurrently on pool threads overlap; counting their
    union (clipped to the parent) keeps the result within [0, duration].
    """
    clipped = [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    covered = _interval_union([(s, e) for s, e in clipped if e > s])
    return span.duration - covered


class Tracer:
    """Records one span per traced call; thread-safe under the pool."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = "setup"
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack: list[int] = []
        self._home_thread = threading.get_ident()
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._home_thread:
            return self._home_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        recorded = _RECORDED_ARGS.get(name, ())
        signature = inspect.signature(fn) if recorded else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # A slice reads the home thread's stack in one step, even if
            # that thread pops concurrently.
            top = stack[-1:] or self._home_stack[-1:]
            parent = top[0] if top else None
            with self._lock:
                span_id = len(self.spans)
                self.spans.append(None)
            stack.append(span_id)
            attrs: dict = {}
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                attrs["error"] = type(exc).__name__
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                if name in _PATH_ARG and args:
                    try:
                        attrs["bytes"] = os.path.getsize(args[0])
                    except OSError:
                        pass
                if signature is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    attrs.update({k: bound.arguments[k] for k in recorded})
                self.spans[span_id] = Span(span_id, name, start, end, parent,
                                           threading.get_ident(), self.run, attrs)

        return traced

    def install(self) -> None:
        """Wrap every traced function in every package namespace holding it."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        self._home_thread = threading.get_ident()
        packages = [m for n, m in list(sys.modules.items())
                    if n == "latent_brrr" or n.startswith("latent_brrr.")]
        for module_name, attr, span_name in TRACED:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
                self._patch(owner, attr, self.wrap(span_name, vars(owner)[attr]))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original)
            for module in packages:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")

