import numpy as np
import pytest

from subnet import optim
from subnet.autodiff import NumericError
from subnet.data import IoDataset, SimSystemConfig, generate_sim_system
from subnet.loss import valid_starts
from subnet.optim import (
    AdamState,
    DegenerateChannelError,
    TrainConfig,
    adam_step,
    fit_normalization,
    run_training_loop,
    train,
)

TINY = dict(horizon=4, n_a=2, n_b=2, n_x=2, hidden_layers=1, hidden_width=6,
            batch_size=64, max_epochs=5, patience=50)


def small_splits(n_train=300, n_val=120, seed=0):
    full = generate_sim_system(
        SimSystemConfig(sigma_e=0.05, n_samples=n_train + n_val, seed=seed)
    )
    return (
        IoDataset(full.u[:n_train], full.y[:n_train]),
        IoDataset(full.u[n_train:], full.y[n_train:]),
    )


def test_fit_normalization_stats():
    rng = np.random.default_rng(0)
    ds = IoDataset(rng.normal(2.0, 3.0, size=(5000, 1)), rng.normal(-1.0, 0.5, size=(5000, 1)))
    norm = fit_normalization(ds)
    u_n = norm.norm_u(ds.u)
    assert abs(u_n.mean()) < 1e-12
    assert u_n.std() == pytest.approx(1.0, abs=1e-12)
    # already-normalized data: identity-ish stats
    norm2 = fit_normalization(IoDataset(u_n, norm.norm_y(ds.y)))
    assert norm2.u_mean[0] == pytest.approx(0.0, abs=1e-12)
    assert norm2.y_std[0] == pytest.approx(1.0, abs=1e-12)


def test_fit_normalization_constant_channel():
    ds = IoDataset(np.ones((50, 2)) * [1.0, 2.0], np.random.default_rng(0).normal(size=(50, 1)))
    ds.u[:, 1] += np.linspace(0, 1, 50)  # only channel 0 constant
    with pytest.raises(DegenerateChannelError, match=r"u channel\(s\) \[0\]"):
        fit_normalization(ds)


def test_adam_zero_gradient_noop():
    state = AdamState()
    params = {"w": np.array([1.0, -2.0])}
    adam_step(state, params, {"w": np.zeros(2)})
    assert np.array_equal(params["w"], [1.0, -2.0])
    assert state.step == 1


def test_adam_first_step_is_signed_lr():
    state = AdamState(lr=1e-3)
    params = {"w": np.zeros(3)}
    g = np.array([0.5, -2.0, 1e-4])
    adam_step(state, params, {"w": g})
    assert np.allclose(params["w"], -1e-3 * np.sign(g), rtol=1e-4)


def test_adam_nonfinite_gradient_raises():
    state = AdamState()
    with pytest.raises(NumericError, match="blk"):
        adam_step(state, {"blk": np.zeros(2)}, {"blk": np.array([1.0, np.nan])})


@pytest.mark.parametrize("lr", [1e308, np.inf, np.nan])
def test_adam_nonfinite_update_raises(lr):
    # lr * m_hat overflows (or is inf * 0); the overflow warns nothing and
    # the parameters are left as they were
    state = AdamState(lr=lr)
    params = {"blk": np.array([1.0, 2.0])}
    with pytest.raises(NumericError, match="non-finite update in block 'blk'"):
        adam_step(state, params, {"blk": np.array([10.0, 0.0])})
    assert np.array_equal(params["blk"], [1.0, 2.0])


def test_train_config_validates_metric():
    with pytest.raises(ValueError):
        TrainConfig(val_metric="test-nrms")


def test_max_epochs_zero_returns_initialized_model():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 0})
    model, report = train(config, train_ds, val_ds)
    assert report.epochs_run == 0
    assert report.train_loss == [] and report.val_metric == []
    from subnet.model import build_model

    fresh = build_model(config.n_x, 1, 1, config.n_a, config.n_b,
                        hidden_layers=config.hidden_layers,
                        hidden_width=config.hidden_width, seed=config.seed,
                        norm=fit_normalization(train_ds))
    assert np.array_equal(model.f_params.flat, fresh.f_params.flat)


def test_budget_zero_runs_no_epochs():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 100, "budget_s": 0.0})
    _model, report = train(config, train_ds, val_ds)
    assert report.epochs_run == 0


def test_training_decreases_loss():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 25, "seed": 1})
    _model, report = train(config, train_ds, val_ds)
    assert report.epochs_run == 25
    assert report.train_loss[-1] < report.train_loss[0]


def test_best_snapshot_correctness():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 12, "seed": 2})
    model, report = train(config, train_ds, val_ds)
    from subnet.analysis import nrms

    sim = model.simulate(val_ds)
    val = nrms(val_ds.y[sim.skip:], sim.y_sim[sim.skip:])
    assert val == pytest.approx(min(report.val_metric), rel=1e-10)
    assert report.best_epoch == int(np.argmin(report.val_metric))


def test_determinism_same_seed():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 6, "seed": 3})
    _m1, r1 = train(config, train_ds, val_ds)
    _m2, r2 = train(config, train_ds, val_ds)
    assert r1.train_loss == r2.train_loss
    assert r1.val_metric == r2.val_metric


def test_no_leakage_norm_from_train_only():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 2})
    model, _report = train(config, train_ds, val_ds)
    expect = fit_normalization(train_ds)
    assert np.array_equal(model.norm.u_mean, expect.u_mean)
    assert np.array_equal(model.norm.y_std, expect.y_std)


def test_patience_stops_training():
    # worsening validation: best stays at epoch 0, stop after patience+1
    blocks = {"w": np.zeros(2)}
    calls = {"n": 0}

    def loss_grad_fn(starts):
        return 1.0, {"w": np.zeros(2)}

    def val_fn():
        calls["n"] += 1
        return float(calls["n"])

    index_set = valid_starts(20, 2, 1, 1)
    config = TrainConfig(**{**TINY, "max_epochs": 100, "patience": 3})
    _best, report = run_training_loop(blocks, loss_grad_fn, val_fn, index_set, config)
    assert report.best_epoch == 0
    assert report.epochs_run == 5  # epochs 0..4; 4 - 0 > 3 stops the loop


def test_divergence_flagged_and_loop_stops():
    blocks = {"w": np.zeros(2)}

    def loss_grad_fn(starts):
        raise NumericError("boom")

    index_set = valid_starts(20, 2, 1, 1)
    config = TrainConfig(**{**TINY, "max_epochs": 10})
    best, report = run_training_loop(blocks, loss_grad_fn, lambda: 0.0, index_set, config)
    assert report.diverged == "boom"
    assert report.epochs_run == 0
    assert np.array_equal(best["w"], np.zeros(2))


@pytest.mark.parametrize("val_metric", ["sim-nrms", "encoder-loss"])
def test_short_validation_split_rejected_before_training(val_metric, monkeypatch):
    # a split no longer than the encoder lag has nothing to validate on
    train_ds, val_ds = small_splits()
    short_val = IoDataset(val_ds.u[:8], val_ds.y[:8])

    def no_training(*args):
        raise AssertionError("training started")

    monkeypatch.setattr(optim, "run_training_loop", no_training)
    config = TrainConfig(**{**TINY, "n_a": 10, "n_b": 10, "val_metric": val_metric})
    with pytest.raises(ValueError, match="validation split length 8 <= encoder lag 10"):
        train(config, train_ds, short_val)


def test_encoder_loss_val_metric():
    train_ds, val_ds = small_splits()
    config = TrainConfig(**{**TINY, "max_epochs": 3, "val_metric": "encoder-loss"})
    _model, report = train(config, train_ds, val_ds)
    assert len(report.val_metric) == 3
    assert all(v >= 0 for v in report.val_metric)
