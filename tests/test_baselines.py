import numpy as np
import pytest

from subnet import optim
from subnet.baselines import (
    TABLE_LABELS,
    VARIANTS,
    _variant_config,
    compare_report,
    evaluate_variant,
    run_variant,
    write_compare_csv,
)
from subnet.data import IoDataset, SimSystemConfig, generate_sim_system
from subnet.loss import full_prediction_loss, valid_starts
from subnet.model import NOISE_STRUCTURES, build_model
from subnet.optim import TrainConfig, fit_normalization

TINY = dict(horizon=5, n_a=2, n_b=2, n_x=2, hidden_layers=1, hidden_width=6,
            batch_size=64, max_epochs=2, patience=50)


def small_splits(n_train=250, n_val=100, n_test=120, seed=0):
    full = generate_sim_system(
        SimSystemConfig(sigma_e=0.05, n_samples=n_train + n_val + n_test, seed=seed)
    )
    cuts = np.cumsum([0, n_train, n_val, n_test])
    return tuple(
        IoDataset(full.u[a:b], full.y[a:b]) for a, b in zip(cuts[:-1], cuts[1:])
    )


def test_variant_configs_differ_only_in_spacing():
    base = TrainConfig(**TINY)
    overlap = _variant_config("encoder-overlap", base)
    no_overlap = _variant_config("encoder-no-overlap", base)
    assert overlap.spacing == 1
    assert no_overlap.spacing == base.horizon
    diff = {
        k for k in base.__dict__
        if overlap.__dict__[k] != no_overlap.__dict__[k]
    }
    assert diff == {"spacing"}


def test_parameter_init_start_count():
    # parameter-init variants train one state per section; sections need no
    # encoder window (lag 0), so there are ceil((N - T + 1) / d) of them
    cfg = TrainConfig(**TINY)
    for n_samples, horizon in [(100, 7), (64, 8), (10, 3)]:
        spacing = _variant_config(
            "parameter-init-no-overlap", TrainConfig(**{**TINY, "horizon": horizon})
        ).spacing
        assert spacing == horizon
        expected = -(-(n_samples - horizon + 1) // horizon)
        assert len(valid_starts(n_samples, horizon, 0, 0, spacing)) == expected
    assert _variant_config("parameter-init-overlap", cfg).spacing == 1
    assert len(valid_starts(100, 7, 0, 0, 1)) == 94


def test_unknown_variant_rejected():
    with pytest.raises(ValueError):
        run_variant("bogus", TrainConfig(**TINY), None, None)


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_variant_smoke_and_fair_parameter_counts(variant):
    train_ds, val_ds, test_ds = small_splits()
    model, report = run_variant(variant, TrainConfig(**TINY), train_ds, val_ds)
    assert report.epochs_run == 2
    assert model.f_params.flat.size == model.f_spec.param_count
    value = evaluate_variant(variant, model, test_ds)
    assert np.isfinite(value) and value >= 0.0
    # all variants train f/h networks of identical size
    reference, _ = run_variant("encoder-overlap", TrainConfig(**TINY), train_ds, val_ds)
    assert model.f_params.flat.size == reference.f_params.flat.size
    assert model.h_params.flat.size == reference.h_params.flat.size


def test_parameter_init_states_receive_gradients():
    from subnet.loss import trainable_state_loss
    from subnet.model import build_model
    from subnet.optim import fit_normalization

    train_ds, _val, _test = small_splits()
    cfg = TrainConfig(**TINY)
    norm = fit_normalization(train_ds)
    model = build_model(cfg.n_x, 1, 1, cfg.n_a, cfg.n_b,
                        hidden_layers=cfg.hidden_layers,
                        hidden_width=cfg.hidden_width, seed=0, norm=norm)
    u = norm.norm_u(train_ds.u)
    y = norm.norm_y(train_ds.y)
    starts = np.arange(0, len(train_ds) - cfg.horizon + 1, cfg.horizon)
    states = np.zeros((len(starts), cfg.n_x))
    _loss, grads = trainable_state_loss(
        model, u, y, starts, np.arange(len(starts)), states, cfg.horizon,
        with_grad=True,
    )
    assert grads["x0"].shape == (states.size,)
    assert np.any(grads["x0"] != 0.0)


def test_budget_zero_returns_init_models():
    train_ds, val_ds, _test = small_splits()
    cfg = TrainConfig(**{**TINY, "max_epochs": 50, "budget_s": 0.0})
    from subnet.model import build_model
    from subnet.optim import fit_normalization

    for variant in ("encoder-overlap", "parameter-init-no-overlap"):
        vcfg = _variant_config(variant, cfg)
        model, report = run_variant(variant, cfg, train_ds, val_ds)
        assert report.epochs_run == 0
        fresh = build_model(vcfg.n_x, 1, 1, vcfg.n_a, vcfg.n_b,
                            hidden_layers=vcfg.hidden_layers,
                            hidden_width=vcfg.hidden_width, seed=vcfg.seed,
                            norm=fit_normalization(train_ds))
        assert np.array_equal(model.f_params.flat, fresh.f_params.flat)


@pytest.mark.parametrize("noise", NOISE_STRUCTURES)
def test_oe_is_one_full_record_section(noise):
    # the first epoch's loss is that of the fresh model over the whole record
    # from a zero state, before any update; with sections of the horizon T it
    # would differ
    train_ds, val_ds, _test = small_splits()
    cfg = TrainConfig(**{**TINY, "noise": noise, "max_epochs": 1})
    _model, report = run_variant("parameter-init-OE", cfg, train_ds, val_ds)
    norm = fit_normalization(train_ds)
    fresh = build_model(cfg.n_x, 1, 1, cfg.n_a, cfg.n_b, noise=noise,
                        hidden_layers=cfg.hidden_layers,
                        hidden_width=cfg.hidden_width, seed=cfg.seed, norm=norm)
    expected = full_prediction_loss(
        fresh, norm.norm_u(train_ds.u), norm.norm_y(train_ds.y), np.zeros(cfg.n_x)
    )
    assert report.train_loss[0] == expected


@pytest.mark.parametrize("variant", VARIANTS)
def test_run_variant_determinism(variant):
    train_ds, val_ds, _test = small_splits()
    runs = [run_variant(variant, TrainConfig(**TINY), train_ds, val_ds) for _ in range(2)]
    (model_a, report_a), (model_b, report_b) = runs
    for field in ("train_loss", "val_metric", "best_epoch", "diverged"):
        assert getattr(report_a, field) == getattr(report_b, field)
    blocks_b = model_b.param_blocks()
    for name, flat in model_a.param_blocks().items():
        assert flat.tobytes() == blocks_b[name].tobytes()


@pytest.mark.parametrize("variant", VARIANTS)
def test_channel_mismatch_rejected_before_training(variant, monkeypatch):
    train_ds, val_ds, _test = small_splits()
    wide_val = IoDataset(np.repeat(val_ds.u, 2, axis=1), val_ds.y)

    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(optim, "run_training_loop", no_training)
    with pytest.raises(ValueError, match="channel counts differ"):
        run_variant(variant, TrainConfig(**TINY), train_ds, wide_val)


@pytest.mark.parametrize("variant", VARIANTS)
def test_short_validation_split_rejected_before_training(variant, monkeypatch):
    train_ds, val_ds, _test = small_splits()
    short_val = IoDataset(val_ds.u[:2], val_ds.y[:2])

    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(optim, "run_training_loop", no_training)
    with pytest.raises(ValueError, match="validation split length 2 <= encoder lag 2"):
        run_variant(variant, TrainConfig(**TINY), train_ds, short_val)


def test_compare_report_rows_and_csv(tmp_path):
    results = {"encoder-overlap": 0.017, "parameter-init-OE": 0.159}
    rows = compare_report(results)
    assert [r[0] for r in rows] == ["Encoder init overlap", "Parameter init OE"]
    assert rows[0][1] == pytest.approx(1.7)
    assert rows[1][1] == pytest.approx(15.9)
    path = tmp_path / "compare.csv"
    write_compare_csv(rows, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "combination,nrms_test_pct"
    assert len(lines) == 3


def test_compare_report_single_variant():
    rows = compare_report({"encoder-overlap": 0.05})
    assert len(rows) == 1
    assert rows[0][0] == TABLE_LABELS["encoder-overlap"]


def test_compare_report_empty_rejected():
    with pytest.raises(ValueError):
        compare_report({})
