"""Adam optimizer, the training loop and the one fit path.

Training follows the usual recipe: Xavier init, IO normalization fitted on
the training split only, per-batch loss/backprop/Adam updates, a per-epoch
validation metric, and early stopping that returns the parameters of the
epoch with the lowest validation value. Everything is deterministic given
the config seed (single-threaded).

`_fit` is the one set-up of all five estimation variants, for `train` and
`baselines.run_variant`; the initial-state source (the encoder, or a bank
of trainable states) picks the loss and the validation.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import loss
from .analysis import free_run_nrms
from .autodiff import NumericError
from .loss import batch_iter, encoder_loss, valid_starts
from .model import Normalization, build_model

VAL_METRICS = ("sim-nrms", "encoder-loss")


class DegenerateChannelError(ValueError):
    """A channel of the training data is constant or too large to normalize."""


def fit_normalization(dataset) -> Normalization:
    """Per-channel mean and population std from the training split only."""
    if len(dataset) == 0:
        raise ValueError("empty training data")
    stats = []
    for label, arr in (("u", dataset.u), ("y", dataset.y)):
        # values near the float64 limit overflow the sums; caught below
        with np.errstate(over="ignore", invalid="ignore"):
            mean = arr.mean(axis=0)
            std = arr.std(axis=0)
        bad = np.nonzero(~(np.isfinite(mean) & np.isfinite(std)))[0]
        if bad.size:
            raise DegenerateChannelError(
                f"{label} channel(s) {bad.tolist()}: mean or std overflows float64"
            )
        bad = np.nonzero(std < 1e-12)[0]
        if bad.size:
            raise DegenerateChannelError(
                f"constant {label} channel(s) {bad.tolist()}: std < 1e-12"
            )
        stats.extend([mean, std])
    return Normalization(*stats)


@dataclass
class AdamState:
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(state: AdamState, params: dict, grads: dict):
    """Standard bias-corrected Adam update, in place on the param blocks.

    Raises `NumericError` naming the block when a gradient or an update is
    non-finite.
    """
    state.step += 1
    t = state.step
    for name, p in params.items():
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient in block {name!r}", index=name)
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m += (1.0 - state.beta1) * (g - m)
        v += (1.0 - state.beta2) * (g * g - v)
        m_hat = m / (1.0 - state.beta1**t)
        v_hat = v / (1.0 - state.beta2**t)
        with np.errstate(over="ignore", invalid="ignore"):
            update = state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
        if not np.all(np.isfinite(update)):
            # from a huge or non-finite learning rate; raising before the
            # update keeps every parameter finite
            raise NumericError(f"non-finite update in block {name!r}", index=name)
        p -= update


@dataclass
class TrainConfig:
    horizon: int = 40  # truncation length T
    n_a: int = 10
    n_b: int = 10
    n_x: int = 4
    noise: str = "output-error"
    hidden_layers: int = 2
    hidden_width: int = 64
    activation: str = "tanh"
    bypass: bool = True
    batch_size: int = 256
    spacing: int = 1  # section spacing d
    learning_rate: float = 1e-3
    max_epochs: int = 5000
    patience: int = 50
    val_metric: str = "sim-nrms"
    seed: int = 0
    budget_s: float | None = None  # wall-clock cap, checked at epoch boundaries

    def __post_init__(self):
        if self.val_metric not in VAL_METRICS:
            raise ValueError(f"unknown validation metric {self.val_metric!r}")


@dataclass
class TrainReport:
    train_loss: list = field(default_factory=list)
    val_metric: list = field(default_factory=list)
    wallclock_s: list = field(default_factory=list)
    best_epoch: int = -1
    diverged: bool = False

    @property
    def epochs_run(self):
        return len(self.train_loss)


def run_training_loop(blocks, loss_grad_fn, val_fn, index_set, config: TrainConfig):
    """The batched training loop of `_fit`, for every estimation variant.

    `blocks` is the dict of trainable flat arrays (updated in place);
    `loss_grad_fn(starts) -> (loss, grads)`, `val_fn() -> float` reads the
    current parameter values. Returns (best_blocks, report); on numeric
    divergence the report is flagged and the best (last good) snapshot wins.
    """
    state = AdamState(lr=config.learning_rate)
    report = TrainReport()
    best_blocks = {k: v.copy() for k, v in blocks.items()}
    best_val = np.inf
    t_start = time.perf_counter()
    for epoch in range(config.max_epochs):
        if config.budget_s is not None and time.perf_counter() - t_start >= config.budget_s:
            break
        try:
            total = 0.0
            count = 0
            for starts in batch_iter(index_set, config.batch_size, config.seed, epoch):
                loss, grads = loss_grad_fn(starts)
                adam_step(state, blocks, grads)
                total += loss * len(starts)
                count += len(starts)
        except NumericError:
            report.diverged = True
            break
        try:
            val = float(val_fn())
        except NumericError:
            val = np.inf
        if not np.isfinite(val):
            val = np.inf
        report.train_loss.append(total / count)
        report.val_metric.append(val)
        report.wallclock_s.append(time.perf_counter() - t_start)
        if val < best_val:
            best_val = val
            report.best_epoch = epoch
            best_blocks = {k: v.copy() for k, v in blocks.items()}
        if epoch - report.best_epoch > config.patience:
            break
    return best_blocks, report


def _fit(config: TrainConfig, train_ds, val_ds, init):
    """Fit the model that `config` describes; returns (best model, TrainReport).

    `init` picks where each section's initial state comes from. "encoder"
    trains psi over the encoder windows. "zero" leaves psi out and trains a
    bank of initial states, one per section, that start at zero; it
    validates by free-run NRMS from a zero state, whatever `val_metric` says.
    """
    if train_ds.n_u != val_ds.n_u or train_ds.n_y != val_ds.n_y:
        raise ValueError("train/validation channel counts differ")
    # every validation runs the encoder lag first, as warm-up or window
    lag = max(config.n_a, config.n_b)
    if len(val_ds) <= lag:
        raise ValueError(f"validation split length {len(val_ds)} <= encoder lag {lag}")
    norm = fit_normalization(train_ds)
    model = build_model(
        config.n_x, train_ds.n_u, train_ds.n_y, config.n_a, config.n_b,
        noise=config.noise, hidden_layers=config.hidden_layers,
        hidden_width=config.hidden_width, activation=config.activation,
        bypass=config.bypass, seed=config.seed, norm=norm,
    )
    u = norm.norm_u(train_ds.u)
    y = norm.norm_y(train_ds.y)
    blocks = model.param_blocks()
    horizon, spacing = config.horizon, config.spacing
    # trainable states need no encoder window, so their sections may start at 0
    lags = (config.n_a, config.n_b) if init == "encoder" else (0, 0)
    index_set = valid_starts(len(train_ds), horizon, *lags, spacing)
    if init == "encoder":

        def loss_grad_fn(starts):
            return encoder_loss(model, u, y, starts, horizon, with_grad=True)

    else:
        states = np.zeros((len(index_set), config.n_x))
        del blocks["psi"]
        blocks["x0"] = states.reshape(-1)

        def loss_grad_fn(starts):
            return loss.trainable_state_loss(
                model, u, y, starts, starts // spacing, states, horizon, with_grad=True
            )

    if init == "encoder" and config.val_metric == "encoder-loss":
        u_val, y_val = norm.norm_u(val_ds.u), norm.norm_y(val_ds.y)
        val_set = valid_starts(len(val_ds), horizon, config.n_a, config.n_b)

        def val_fn():
            return encoder_loss(model, u_val, y_val, val_set.starts, horizon)

    else:

        def val_fn():
            return free_run_nrms(model, val_ds, init)

    best, report = run_training_loop(blocks, loss_grad_fn, val_fn, index_set, config)
    for name, flat in blocks.items():
        flat[:] = best[name]
    return model, report


def train(config: TrainConfig, train_ds, val_ds):
    """Estimate a model on the training split with early stopping on the
    validation split. Returns (best model, TrainReport)."""
    return _fit(config, train_ds, val_ds, "encoder")


def write_report_csv(report: TrainReport, path):
    """Deterministic training curves (epoch, train_loss, val_metric)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "val_metric"])
        for i, (tr, va) in enumerate(zip(report.train_loss, report.val_metric)):
            writer.writerow([i, f"{tr:.17g}", f"{va:.17g}"])


def write_timing_csv(report: TrainReport, path):
    """Wall-clock per epoch, kept out of the deterministic report file."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "wallclock_s"])
        for i, w in enumerate(report.wallclock_s):
            writer.writerow([i, f"{w:.6f}"])
