"""Spans and counters recorded around the public callables of `subnet`.

A traced operation patches each callee where its caller looks it up (a
module global such as `subnet.optim.encoder_loss`, or a method on its
class such as `Tape.backward`) and restores the originals afterwards, so
untraced operations in the same process run the unmodified package.
The package itself is never edited.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter
from dataclasses import dataclass
from statistics import median

TRAIN = ("train-overlap", "train-full-record")
EVAL = ("eval-cli",)


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and how it is computed from the trace.

    `stat` is "total" (median span duration per call), "self" (median
    duration minus the traced callees inside it), "sample" (median recorded
    value per call), "calls" (spans per operation) or "per_op" (counter
    total per operation). `workloads` are the workloads that must produce
    samples; on the others the layer is not called and the value is 0.
    """

    name: str
    unit: str
    source: str
    stat: str
    workloads: tuple


LAYER_METRICS = (
    LayerMetric("loss.encoder_loss_fwd_ms", "ms", "loss.encoder_loss", "self", TRAIN[:1]),
    LayerMetric("loss.encoder_loss_grad_ms", "ms", "loss.encoder_loss", "total", TRAIN[:1]),
    LayerMetric("autodiff.backward_ms", "ms", "autodiff.backward", "self", TRAIN),
    LayerMetric("autodiff.tape_nodes", "count", "autodiff.tape_nodes", "sample", TRAIN),
    LayerMetric(
        "loss.trainable_state_loss_grad_s", "s", "loss.trainable_state_loss", "total",
        TRAIN[1:],
    ),
    LayerMetric("baselines.run_variant_s", "s", "baselines.run_variant", "total", TRAIN[1:]),
    LayerMetric("optim.adam_step_ms", "ms", "optim.adam_step", "total", TRAIN),
    LayerMetric("optim.adam_steps", "count", "optim.adam_step", "calls", TRAIN),
    LayerMetric("optim.val_s", "s", "optim.val", "total", TRAIN),
    LayerMetric("model.simulate_s", "s", "model.simulate", "total", TRAIN + EVAL),
    LayerMetric("nets.mlp_forward_calls", "count", "nets.mlp_forward", "per_op", TRAIN + EVAL),
    LayerMetric("model.kstep_predictions_s", "s", "model.kstep_predictions", "total", EVAL),
    LayerMetric(
        "model.kstep_predictions_calls", "count", "model.kstep_predictions", "calls", EVAL
    ),
    LayerMetric("analysis.kstep_nrms_s", "s", "analysis.kstep_nrms", "total", EVAL),
    LayerMetric("model.load_model_s", "s", "model.load_model", "total", EVAL),
    LayerMetric("data.load_csv_s", "s", "data.load_csv", "total", EVAL),
    LayerMetric("data.benchmark_splits_s", "s", "data.benchmark_splits", "total", TRAIN + EVAL),
    LayerMetric("cli.eval_self_s", "s", "cli.main", "self", EVAL),
    LayerMetric("cli.bytes_written", "bytes", "cli.bytes_written", "per_op", EVAL),
)


class Tracer:
    """Spans (name, start, end, parent, op) and counters, kept in memory.

    `op` is the identifier of the job being run (-1 during set-up); every
    span and counter recorded during it carries that identifier.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, op]
        self.samples = []  # (name, value, op)
        self.counts = Counter()  # (name, op) -> total
        self.op = -1
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def timed(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[(name, self.op)] += 1
            return fn(*args, **kwargs)

        return wrapper

    def count(self, name, value):
        self.counts[(name, self.op)] += value

    def summarize(self, metric: LayerMetric, n_ops):
        """Value of `metric` over the traced operations, or None without samples."""
        if metric.stat == "sample":
            values = [v for name, v, _ in self.samples if name == metric.source]
            return median(values) if values else None
        if metric.stat == "per_op":
            total = sum(v for (name, _), v in self.counts.items() if name == metric.source)
            return total / n_ops if total else None
        durations = {}
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            if name == metric.source:
                durations[idx] = end - start
        if not durations:
            return None
        if metric.stat == "calls":
            return len(durations) / n_ops
        if metric.stat == "self":
            for name, start, end, parent, _ in self.spans:
                if parent in durations:
                    durations[parent] -= end - start
        scale = 1e3 if metric.unit == "ms" else 1.0
        return scale * median(durations.values())


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch the package's public callables to record into `tracer`."""
    from subnet import analysis, autodiff, baselines, cli, data, loss, model, optim

    def backward(fn):
        @functools.wraps(fn)
        def wrapper(tape, root):
            tracer.samples.append(("autodiff.tape_nodes", len(tape.nodes), tracer.op))
            with tracer.span("autodiff.backward"):
                return fn(tape, root)

        return wrapper

    def training_loop(fn):
        # the validation callable is a closure inside train/run_variant,
        # so it is wrapped where the loop receives it
        @functools.wraps(fn)
        def wrapper(blocks, loss_grad_fn, val_fn, index_set, config):
            return fn(blocks, loss_grad_fn, tracer.timed("optim.val", val_fn), index_set, config)

        return wrapper

    def timed(name):
        return functools.partial(tracer.timed, name)

    table = [
        (data, "benchmark_splits", timed("data.benchmark_splits")),
        (data, "load_csv", timed("data.load_csv")),
        (optim, "encoder_loss", timed("loss.encoder_loss")),
        (loss, "trainable_state_loss", timed("loss.trainable_state_loss")),
        (baselines, "run_variant", timed("baselines.run_variant")),
        (optim, "adam_step", timed("optim.adam_step")),
        (optim, "run_training_loop", training_loop),
        (baselines, "run_training_loop", training_loop),
        (autodiff.Tape, "backward", backward),
        (model.SubnetModel, "simulate", timed("model.simulate")),
        (model.SubnetModel, "kstep_predictions", timed("model.kstep_predictions")),
        (model, "mlp_forward", functools.partial(tracer.counted, "nets.mlp_forward")),
        (analysis, "kstep_nrms", timed("analysis.kstep_nrms")),
        (cli, "load_model", timed("model.load_model")),
        (cli, "main", timed("cli.main")),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in table]
    try:
        for owner, attr, wrap in table:
            setattr(owner, attr, wrap(getattr(owner, attr)))
        yield
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
