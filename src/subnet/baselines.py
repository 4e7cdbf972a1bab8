"""Comparison estimators: full-record simulation fitting and multiple
shooting with trainable per-section initial states, with and without
section overlap, against the encoder-initialized variants.

All variants run through `optim._fit`, so they share the set-up, the
state-transition/output networks, the optimizer and the budget handling.
They differ only in how each section's initial state is obtained (encoder
vs. trainable parameter, `INIT_MODE`) and in the section spacing; the
full-record variant is one section over the whole record. Trainable
initial states start at zero (the prior for normalized data).
"""

from __future__ import annotations

import csv

from .analysis import free_run_nrms
from .optim import TrainConfig, _fit
from .optim import run_training_loop  # noqa: F401  bench/spans.py patches it here

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

# each variant's initial-state source, in training (`optim._fit`) and when
# simulating unseen data
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
    warm-up skip as the encoder variants. Parameter-init-OE is that fit
    with one section of the whole record.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    cfg = _variant_config(variant, config)
    if variant == "parameter-init-OE":
        cfg = TrainConfig(**{**cfg.__dict__, "horizon": len(train_ds)})
    return _fit(cfg, train_ds, val_ds, INIT_MODE[variant])


def evaluate_variant(variant, model, test_ds):
    """Free-run test NRMS with the variant's initial-state convention."""
    return free_run_nrms(model, test_ds, INIT_MODE[variant])


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
