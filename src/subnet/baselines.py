"""Comparison estimators: full-record simulation fitting and multiple
shooting with trainable per-section initial states, with and without
section overlap, against the encoder-initialized variants.

All variants share the same state-transition/output networks, optimizer
and budget handling; they differ only in how each section's initial state
is obtained (encoder vs. trainable parameter) and in the section spacing.
Trainable initial states start at zero (the prior for normalized data).
"""

from __future__ import annotations

import csv

import numpy as np

from .loss import full_prediction_loss, trainable_state_loss, valid_starts
from .model import build_model
from .optim import TrainConfig, fit_normalization, run_training_loop, train

VARIANTS = (
    "parameter-init-OE",
    "parameter-init-no-overlap",
    "parameter-init-overlap",
    "encoder-no-overlap",
    "encoder-overlap",
)

TABLE_LABELS = {
    "parameter-init-OE": "Parameter init OE",
    "parameter-init-no-overlap": "Parameter init no-overlap",
    "parameter-init-overlap": "Parameter init overlap",
    "encoder-no-overlap": "Encoder init no-overlap",
    "encoder-overlap": "Encoder init overlap",
}

# how each variant obtains the initial state when simulating unseen data
INIT_MODE = {
    "parameter-init-OE": "zero",
    "parameter-init-no-overlap": "zero",
    "parameter-init-overlap": "zero",
    "encoder-no-overlap": "encoder",
    "encoder-overlap": "encoder",
}


def _variant_config(variant, config: TrainConfig):
    spacing = config.horizon if variant.endswith("no-overlap") else 1
    return TrainConfig(**{**config.__dict__, "spacing": spacing})


def run_variant(variant, config: TrainConfig, train_ds, val_ds):
    """Train one comparison variant; returns (model, TrainReport).

    Parameter-init variants keep the (untrained) encoder out of the
    parameter vector and estimate one initial state per section instead;
    their validation/test simulations start from a zero state with the same
    warm-up skip as the encoder variants.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    cfg = _variant_config(variant, config)
    if variant.startswith("encoder"):
        return train(cfg, train_ds, val_ds)

    norm = fit_normalization(train_ds)
    model = build_model(
        cfg.n_x, train_ds.n_u, train_ds.n_y, cfg.n_a, cfg.n_b,
        noise=cfg.noise,
        hidden_layers=cfg.hidden_layers,
        hidden_width=cfg.hidden_width,
        activation=cfg.activation,
        bypass=cfg.bypass,
        seed=cfg.seed,
        norm=norm,
    )
    u = norm.norm_u(train_ds.u)
    y = norm.norm_y(train_ds.y)
    n_samples = len(train_ds)

    if variant == "parameter-init-OE":
        horizon, spacing = n_samples, 1
    else:
        horizon, spacing = cfg.horizon, cfg.spacing
    # trainable states need no encoder window, so sections may start at 0
    index_set = valid_starts(n_samples, horizon, 0, 0, spacing)
    states = np.zeros((len(index_set), cfg.n_x))

    blocks = {k: v for k, v in model.param_blocks().items() if k != "psi"}
    blocks["x0"] = states.reshape(-1)

    def loss_grad_fn(batch_starts):
        positions = batch_starts // spacing
        if variant == "parameter-init-OE":
            return full_prediction_loss(model, u, y, states[0], with_grad=True)
        return trainable_state_loss(
            model, u, y, batch_starts, positions, states, horizon, with_grad=True
        )

    def val_fn():
        from .analysis import nrms

        sim = model.simulate(val_ds, mode="free-run", init="zero")
        return nrms(val_ds.y[sim.skip :], sim.y_sim[sim.skip :])

    best_blocks, report = run_training_loop(blocks, loss_grad_fn, val_fn, index_set, cfg)
    for name, flat in blocks.items():
        flat[:] = best_blocks[name]
    return model, report


def evaluate_variant(variant, model, test_ds):
    """Free-run test NRMS with the variant's initial-state convention."""
    from .analysis import nrms

    sim = model.simulate(test_ds, mode="free-run", init=INIT_MODE[variant])
    return nrms(test_ds.y[sim.skip :], sim.y_sim[sim.skip :])


def compare_report(results):
    """Rows (label, NRMS%) sorted by label; `results` maps variant -> NRMS."""
    if not results:
        raise ValueError("no results to report")
    rows = [
        (TABLE_LABELS.get(variant, variant), 100.0 * value)
        for variant, value in results.items()
    ]
    rows.sort(key=lambda r: r[0])
    return rows


def write_compare_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["combination", "nrms_test_pct"])
        for label, pct in rows:
            writer.writerow([label, f"{pct:.6g}"])
