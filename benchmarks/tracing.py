"""Span recording around the public functions of each saea layer.

The traced run replaces every function listed by `sites` with a wrapper that
records one span per call: name, start, end, parent span and the round it
belongs to. Wrappers are installed in the namespace each caller looks the
function up in (e.g. `saea.train.saea_loss` as well as `saea.cli.fit`),
because `from .adjust import saea_loss` binds a second name that patching the
defining module would miss. Spans stay in memory and are written once when
the run ends; `uninstall` puts the original functions back, so untraced
rounds in the same process run the library unchanged.

A span's self time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
from collections import defaultdict
from time import perf_counter

import saea.adjust
import saea.cli
import saea.train
from saea.data import WindowSet
from saea.forecaster import Forecaster

# (metric, unit, better). Counts and seconds are per traced round, except
# synth.generate, which runs during set-up and is per set-up.
PER_LAYER = [
    ("adjust.spectral_radius.calls", "count", "lower"),
    ("adjust.spectral_radius.self_s", "s", "lower"),
    ("adjust.saea_loss.calls", "count", "lower"),
    ("adjust.saea_loss.total_s", "s", "lower"),
    ("adjust.saea_loss.self_s", "s", "lower"),
    ("adjust.regularize.calls", "count", "lower"),
    ("adjust.regularize.self_s", "s", "lower"),
    ("adjust.predict_windows.calls", "count", "lower"),
    ("adjust.predict_windows.self_s", "s", "lower"),
    ("adjust.predict_windows.windows", "count", "lower"),
    ("adjust.saea_predict.calls", "count", "lower"),
    ("adjust.saea_predict.self_s", "s", "lower"),
    ("forecaster.forward_batch.calls", "count", "lower"),
    ("forecaster.forward_batch.self_s", "s", "lower"),
    ("forecaster.forward_batch.windows", "count", "lower"),
    ("forecaster.vjp_batch.calls", "count", "lower"),
    ("forecaster.vjp_batch.self_s", "s", "lower"),
    ("forecaster.vjp_batch.windows", "count", "lower"),
    ("forecaster.passes_per_step", "count", "lower"),
    ("data.ingest_csv.calls", "count", "lower"),
    ("data.ingest_csv.self_s", "s", "lower"),
    ("data.ingest_csv.cells", "count", "lower"),
    ("data.make_windows.calls", "count", "lower"),
    ("data.make_windows.self_s", "s", "lower"),
    ("data.make_windows.bytes", "B", "lower"),
    ("data.WindowSet.take.calls", "count", "lower"),
    ("data.WindowSet.take.self_s", "s", "lower"),
    ("train.fit.calls", "count", "lower"),
    ("train.fit.total_s", "s", "lower"),
    ("train.fit.self_s", "s", "lower"),
    ("train.fit.diverged", "count", "lower"),
    ("train.rmsprop_step.calls", "count", "lower"),
    ("train.rmsprop_step.self_s", "s", "lower"),
    ("train.checkpoint_blob.calls", "count", "lower"),
    ("train.checkpoint_blob.self_s", "s", "lower"),
    ("train.checkpoint_blob.kept_ratio", "ratio", "higher"),
    ("train.predict_recursive.calls", "count", "lower"),
    ("train.predict_recursive.self_s", "s", "lower"),
    ("metrics.residual_report.calls", "count", "lower"),
    ("metrics.residual_report.self_s", "s", "lower"),
    ("graph.load_adjacency_csv.self_s", "s", "lower"),
    ("graph.structural_mask.self_s", "s", "lower"),
    ("synth.generate.self_s", "s", "lower"),
    ("cli.run.self_s", "s", "lower"),
    ("cli.write_manifest.self_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]

# Which end-to-end metric each per-layer metric should move, the workload
# that exercises it most, and the workloads where it is bypassed or light.
LAYER_MAP = {
    "adjust.spectral_radius": (["train_steps_per_s", "wall_s"], "ring20_recovery", ["road200_kinds", "road200_score"]),
    "adjust.saea_loss": (["train_steps_per_s"], "road200_kinds", ["road200_score"]),
    "adjust.regularize": (["train_steps_per_s"], "ring20_recovery", ["road200_score"]),
    "adjust.predict_windows": (["score_windows_per_s", "diagnose_s"], "road200_score", []),
    "adjust.saea_predict": (["predict_us_mean", "rollout_ms_mean"], "road200_score", ["ring20_recovery", "road200_kinds"]),
    "forecaster.forward_batch": (["train_steps_per_s", "score_windows_per_s"], "road200_score", []),
    "forecaster.vjp_batch": (["train_steps_per_s"], "road200_kinds", []),
    "forecaster.passes_per_step": (["train_steps_per_s"], "road200_kinds", ["road200_score"]),
    "data.ingest_csv": (["score_windows_per_s", "diagnose_s"], "road200_score", ["ring20_recovery"]),
    "data.make_windows": (["peak_rss_mb", "score_windows_per_s"], "road200_score", ["ring20_recovery"]),
    "data.WindowSet.take": (["train_steps_per_s"], "ring20_recovery", ["road200_score"]),
    "train.fit": (["train_steps_per_s"], "ring20_recovery", ["road200_score"]),
    "train.rmsprop_step": (["train_steps_per_s"], "ring20_recovery", ["road200_score"]),
    "train.checkpoint_blob": (["wall_s"], "road200_kinds", ["road200_score"]),
    "train.predict_recursive": (["rollout_ms_mean"], "road200_score", ["ring20_recovery", "road200_kinds"]),
    "metrics.residual_report": (["diagnose_s"], "road200_score", ["ring20_recovery", "road200_kinds"]),
    "graph.load_adjacency_csv": (["wall_s"], "road200_kinds", []),
    "graph.structural_mask": (["wall_s"], "road200_kinds", []),
    "synth.generate": (["setup_s"], "road200_score", []),
    "cli.run": (["wall_s", "diagnose_s"], "road200_score", ["ring20_recovery"]),
    "cli.write_manifest": (["wall_s", "diagnose_s"], "road200_score", ["ring20_recovery"]),
}

SETUP_LAYERS = ("synth.generate",)


def _count_predict_windows(counts, args, result):
    counts["adjust.predict_windows.windows"] += args[2].batch


def _count_forward(counts, args, result):
    counts["forecaster.forward_batch.windows"] += len(args[1])


def _count_vjp(counts, args, result):
    counts["forecaster.vjp_batch.windows"] += len(args[1])


def _count_ingest(counts, args, result):
    counts["data.ingest_csv.cells"] += result.values.size


def _count_windows(counts, args, result):
    counts["data.make_windows.bytes"] += sum(
        arr.nbytes for arr in (result.inputs, result.inputs_shifted, result.anchors, result.targets)
    )


def _count_fit(counts, args, result):
    counts["train.fit.diverged"] += bool(result.diverged)
    # best and final are both blobs built by checkpoint_blob during this fit
    counts["train.checkpoint_blob.kept"] += len(
        {id(result.best_checkpoint), id(result.final_checkpoint)}
    )


def sites(api):
    """(span name, owner, attribute, counter) for every wrapped function.

    `api` is the namespace through which the benchmark itself calls
    `cli.run`, `synth.generate`, `saea_predict` and `predict_recursive`.
    """
    out = [
        ("cli.run", api, "run", None),
        ("synth.generate", api, "generate", None),
        ("adjust.saea_predict", api, "saea_predict", None),
        ("train.predict_recursive", api, "predict_recursive", None),
        ("adjust.saea_loss", saea.train, "saea_loss", None),
        ("adjust.predict_windows", saea.train, "predict_windows", _count_predict_windows),
        ("adjust.spectral_radius", saea.train, "spectral_radius", None),
        ("adjust.saea_predict", saea.train, "saea_predict", None),
        ("train.checkpoint_blob", saea.train, "checkpoint_blob", None),
        ("train.rmsprop_step", saea.train, "rmsprop_step", None),
        ("adjust.regularize", saea.adjust, "regularize", None),
        ("train.fit", saea.cli, "fit", _count_fit),
        ("train.load_checkpoint_blob", saea.cli, "load_checkpoint_blob", None),
        ("data.ingest_csv", saea.cli, "ingest_csv", _count_ingest),
        ("data.make_windows", saea.cli, "make_windows", _count_windows),
        ("adjust.predict_windows", saea.cli, "predict_windows", _count_predict_windows),
        ("metrics.residual_report", saea.cli, "residual_report", None),
        ("cli.write_manifest", saea.cli, "write_manifest", None),
        ("graph.load_adjacency_csv", saea.cli, "load_adjacency_csv", None),
        ("graph.structural_mask", saea.cli, "structural_mask", None),
        ("data.WindowSet.take", WindowSet, "take", None),
    ]
    pending = list(Forecaster.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "forward_batch" in cls.__dict__:
            out.append(("forecaster.forward_batch", cls, "forward_batch", _count_forward))
        if "vjp_batch" in cls.__dict__:
            out.append(("forecaster.vjp_batch", cls, "vjp_batch", _count_vjp))
    return out


class Tracer:
    def __init__(self, api):
        self.api = api
        self.spans = []  # [name, start, end, parent index or -1, unit]
        self.counts = defaultdict(float)
        self.unit = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn, counter):
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.unit]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(counts, args, result)
            return result

        return functools.update_wrapper(wrapper, fn)

    def install(self, unit, names=None) -> None:
        """Wrap every site, or only the sites whose span name is in `names`."""
        self.unit = unit
        for name, owner, attr, counter in sites(self.api):
            if names is not None and name not in names:
                continue
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.unit = None

    def layer_metrics(self, rounds: int, setups: int, overhead_frac: float) -> dict:
        """Per-layer metrics: counts and seconds per traced round (per set-up
        for set-up layers), plus the derived ratios."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
        step_passes = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_s[name] += end - start - child[i]
            if name in ("forecaster.forward_batch", "forecaster.vjp_batch") and parent >= 0:
                step_passes += self.spans[parent][0] == "adjust.saea_loss"
        values = {}
        for metric, unit, _ in PER_LAYER:
            layer, stat = metric.rsplit(".", 1)
            per = setups if layer in SETUP_LAYERS else rounds
            if stat == "calls":
                value = calls[layer] / per
            elif stat == "total_s":
                value = total[layer] / per
            elif stat == "self_s":
                value = self_s[layer] / per
            elif metric == "forecaster.passes_per_step":
                value = step_passes / max(calls["adjust.saea_loss"], 1)
            elif metric == "train.checkpoint_blob.kept_ratio":
                built = calls["train.checkpoint_blob"]
                value = self.counts["train.checkpoint_blob.kept"] / built if built else 0.0
            elif metric == "trace.overhead_frac":
                value = overhead_frac
            else:
                value = self.counts[metric] / per
            values[metric] = {"value": value, "unit": unit}
        return values

    def dump(self, path) -> None:
        """Write every span as [name, start, end, parent, unit]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"layer_map": LAYER_MAP, "spans": self.spans}, fh)
