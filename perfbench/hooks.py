"""Timing hooks around semcert's public functions, installed from outside.

Each hook replaces one module attribute -- the name a calling module
looks up at call time -- with a wrapper that records a span and the
hook's work counters, and restores the original afterwards.  Nothing
under ``src/`` is edited.  ``HOOKS`` is the single table that maps each
wrapped name to its layer; a target that no longer exists (say after a
rename) is reported as missing for its layer instead of failing the run.

A span's self time is its duration minus the time its child spans cover;
summing self times per layer splits a traced run's wall time by layer.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

LAYERS = ("cli", "io", "pipeline", "smoothing", "streams", "transforms",
          "tensor", "classifiers", "statfn", "aliasing", "radii")


def _arg(args, kwargs, pos: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _count(key: str, amount=1):
    return lambda rec, args, kwargs, result: rec.add(key, amount)


def _draws(rec, args, kwargs, result):
    rec.add("streams.draws", len(result))
    rec.add("streams.values", result.size)


def _images(key: str):
    return lambda rec, args, kwargs, result: rec.add(key, len(result))


def _bilinear(rec, args, kwargs, result):
    rec.add("tensor.bilinear_points", getattr(result, "size", 0))


def _samples(rec, args, kwargs, result):
    rec.add("smoothing.samples", result.total)


def _anchor(rec, args, kwargs, result):
    rec.anchor(result)


def _alias(rec, args, kwargs, result):
    grid = _arg(args, kwargs, 2, "grid")
    rec.add("aliasing.calls")
    rec.add("aliasing.intervals", grid.n_outer - 1)
    rec.sqrt_m.append(result.sqrt_m)
    if rec.current is not None:
        rec.current.aliasing_s += rec.last_elapsed


def _bytes_written(rec, args, kwargs, result):
    rec.add("io.bytes_written", os.path.getsize(_arg(args, kwargs, 1, "path")))


def _classifier_loaded(rec, args, kwargs, result):
    rec.wrap_classifier(result)


@dataclass(frozen=True)
class Hook:
    module: str
    attr: str
    layer: str
    counter: Callable | None = None
    always: bool = False  # also installed in untraced runs (cheap, per row)
    group: str | None = None  # sub-layer that keeps its own self time
    row: bool = False  # the cli -> pipeline call that makes one CSV row

    @property
    def name(self) -> str:
        return f"{self.module.removeprefix('semcert.')}.{self.attr}"


HOOKS = (
    Hook("semcert.cli", "run_cli", "cli"),
    Hook("semcert.io", "read_idx", "io"),
    Hook("semcert.io", "load_linear_classifier", "io", _classifier_loaded),
    Hook("semcert.io", "rows_from_table", "io"),
    Hook("semcert.io", "write_report_csv", "io", _bytes_written),
    Hook("semcert.io", "report_summary", "io"),
    Hook("semcert.io", "write_summary_json", "io", _bytes_written),
    Hook("semcert.cli", "certify_resolvable", "pipeline", always=True, row=True),
    Hook("semcert.cli", "certify_bc_rectangle", "pipeline", always=True, row=True),
    Hook("semcert.cli", "certify_diff_resolvable", "pipeline", always=True, row=True),
    Hook("semcert.cli", "robust_accuracy_report", "pipeline"),
    Hook("semcert.pipeline", "predict", "smoothing"),
    Hook("semcert.pipeline", "certify", "smoothing", _count("smoothing.certify_calls")),
    Hook("semcert.pipeline", "progressive_certify", "smoothing", _anchor, always=True),
    Hook("semcert.smoothing", "sample_counts", "smoothing", _samples),
    Hook("semcert.smoothing", "draw_params", "streams", _draws),
    Hook("semcert.smoothing", "clopper_pearson_lower", "statfn",
         _count("statfn.cp_calls"), group="cp"),
    Hook("semcert.smoothing", "binom_two_sided_p", "statfn", _count("statfn.binom_calls")),
    Hook("semcert.smoothing", "std_normal_quantile", "statfn"),
    Hook("semcert.radii", "std_normal_quantile", "statfn"),
    Hook("semcert.radii", "std_normal_cdf", "statfn"),
    Hook("semcert.pipeline", "closed_form_radius", "radii", _count("radii.calls")),
    Hook("semcert.pipeline", "bc_confidence_shift", "radii", _count("radii.calls")),
    Hook("semcert.pipeline", "bc_condition", "radii", _count("radii.calls")),
    Hook("semcert.pipeline", "aliasing_bound", "aliasing", _alias),
    Hook("semcert.smoothing", "blur_many", "transforms",
         _images("transforms.blur_images"), group="blur"),
    Hook("semcert.smoothing", "translate", "transforms"),
    Hook("semcert.smoothing", "rotate_many", "transforms",
         _images("transforms.geom_images"), group="geom"),
    Hook("semcert.smoothing", "scale_many", "transforms",
         _images("transforms.geom_images"), group="geom"),
    Hook("semcert.aliasing", "rotate_many", "transforms",
         _images("transforms.geom_images"), group="geom"),
    Hook("semcert.aliasing", "scale_many", "transforms",
         _images("transforms.geom_images"), group="geom"),
    Hook("semcert.pipeline", "rotate", "transforms", _count("transforms.geom_images"), group="geom"),
    Hook("semcert.pipeline", "scale", "transforms", _count("transforms.geom_images"), group="geom"),
    Hook("semcert.pipeline", "translate", "transforms"),
    Hook("semcert.transforms", "bilinear_many", "tensor", _bilinear),
)

CLASSIFIER_HOOKS = (
    Hook("classifier", "classify", "classifiers", _count("classifiers.evals")),
    Hook("classifier", "classify_flat_batch", "classifiers",
         lambda rec, args, kwargs, result: rec.add("classifiers.evals", len(result))),
)


@dataclass
class Certification:
    """One row: the cli -> pipeline call and what happened inside it."""

    label: object
    seconds: float = 0.0
    verdict: str = ""
    aliasing_s: float = 0.0
    anchors: list = field(default_factory=list)  # (checks_used, certified, label ok)


class Recorder:
    """Collects spans and counters while its hooks are installed."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.counts: dict[str, float] = defaultdict(float)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.group_self: dict[str, float] = defaultdict(float)
        self.hook_total: dict[str, float] = defaultdict(float)
        self.sqrt_m: list[float] = []
        self.rows: list[Certification] = []
        self.missing: list[str] = []
        self.counter_errors: dict[str, str] = {}
        self._stack: list[list[float]] = []
        self.current: Certification | None = None
        self.last_elapsed = 0.0
        self._saved: list[tuple[object, str, object]] = []

    # -- counters used by the hook table ---------------------------------

    def add(self, key: str, amount=1) -> None:
        self.counts[key] += amount

    def anchor(self, outcome) -> None:
        if self.current is None:
            return
        label_ok = outcome.label == self.current.label
        self.current.anchors.append((outcome.checks_used, outcome.certified, label_ok))

    def wrap_classifier(self, classifier) -> None:
        for hook in CLASSIFIER_HOOKS:
            original = getattr(classifier, hook.attr, None)
            if original is None:
                self._note_missing(hook)
                continue
            setattr(classifier, hook.attr, self._wrap(original, hook))

    # -- installation ----------------------------------------------------

    def _note_missing(self, hook: Hook) -> None:
        entry = f"{hook.layer}:{hook.name}"
        if entry not in self.missing:
            self.missing.append(entry)

    def install(self) -> "Recorder":
        for hook in HOOKS:
            if not (self.traced or hook.always):
                continue
            try:
                module = importlib.import_module(hook.module)
            except ImportError:
                self._note_missing(hook)
                continue
            original = getattr(module, hook.attr, None)
            if original is None:
                self._note_missing(hook)
                continue
            self._saved.append((module, hook.attr, original))
            setattr(module, hook.attr, self._wrap(original, hook))
        return self

    def restore(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def __enter__(self) -> "Recorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    # -- the wrapper -----------------------------------------------------

    def _wrap(self, fn: Callable, hook: Hook) -> Callable:
        stack = self._stack

        def wrapper(*args, **kwargs):
            if hook.row:
                self.current = Certification(_arg(args, kwargs, 1, "label"))
            children = [0.0]
            stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                own = elapsed - children[0]
                self.layer_self[hook.layer] += own
                if hook.group:
                    self.group_self[hook.group] += own
                self.hook_total[hook.name] += elapsed
            self.last_elapsed = elapsed
            if hook.row:
                self.current.seconds = elapsed
                self.current.verdict = getattr(result, "verdict", "")
                self.rows.append(self.current)
                self.current = None
            if hook.counter is not None:
                try:
                    hook.counter(self, args, kwargs, result)
                except Exception as exc:  # a changed signature must not stop the run
                    self.counter_errors.setdefault(hook.name, repr(exc))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

