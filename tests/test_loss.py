import numpy as np
import pytest
from conftest import linear_toy_model, simulate_linear_toy
from hypothesis import given, settings
from hypothesis import strategies as st

from subnet import loss
from subnet.autodiff import NumericError, Tape, grad_check
from subnet.loss import (
    EmptyIndexSetError,
    batch_iter,
    encoder_loss,
    full_prediction_loss,
    trainable_state_loss,
    valid_starts,
)
from subnet.model import build_model


def test_valid_starts_overlap_example():
    # N=10, T=4, lag 2, d=1: starts {2..6} (0-based), count N-T-n+1 = 5
    idx = valid_starts(10, 4, 2, 2, spacing=1)
    assert idx.starts.tolist() == [2, 3, 4, 5, 6]
    assert len(idx) == 10 - 4 - 2 + 1


def test_valid_starts_spacing_example():
    idx = valid_starts(10, 4, 2, 2, spacing=4)
    assert idx.starts.tolist() == [2, 6]


def test_valid_starts_counts_match_ceil():
    # lag 0 is the trainable-state (parameter-init) section set
    cases = [(100, 7, 3, 1), (100, 7, 3, 7), (55, 5, 4, 3),
             (100, 7, 0, 7), (64, 8, 0, 8), (10, 3, 0, 3)]
    for n_samples, horizon, lag, d in cases:
        idx = valid_starts(n_samples, horizon, lag, lag, spacing=d)
        count = n_samples - horizon - lag + 1
        assert len(idx) == -(-count // d)
    assert len(valid_starts(100, 7, 0, 0, spacing=1)) == 94


def test_valid_starts_empty_raises():
    with pytest.raises(EmptyIndexSetError):
        valid_starts(6, 5, 2, 2)


def test_valid_starts_bad_args():
    with pytest.raises(ValueError):
        valid_starts(10, 0, 1, 1)
    with pytest.raises(ValueError):
        valid_starts(10, 2, 1, 1, spacing=0)


def test_spacing_section_geometry():
    # d=T gives disjoint sections, d=1 maximal overlap
    horizon = 4
    idx_t = valid_starts(30, horizon, 2, 2, spacing=horizon)
    covered = [set(range(s, s + horizon)) for s in idx_t.starts]
    for a, b in zip(covered, covered[1:]):
        assert not (a & b)
    idx_1 = valid_starts(30, horizon, 2, 2, spacing=1)
    for a, b in zip(idx_1.starts, idx_1.starts[1:]):
        assert b - a == 1


def test_batch_iter_partition_and_determinism():
    idx = valid_starts(100, 5, 2, 2)
    batches = list(batch_iter(idx, 16, seed=3, epoch=2))
    merged = np.concatenate(batches)
    assert sorted(merged.tolist()) == sorted(idx.starts.tolist())
    again = np.concatenate(list(batch_iter(idx, 16, seed=3, epoch=2)))
    assert np.array_equal(merged, again)
    other = np.concatenate(list(batch_iter(idx, 16, seed=3, epoch=3)))
    assert not np.array_equal(merged, other)


def test_batch_iter_single_batch_shuffled():
    idx = valid_starts(200, 5, 2, 2)
    batches = list(batch_iter(idx, 10_000, seed=0, epoch=0))
    assert len(batches) == 1
    assert sorted(batches[0].tolist()) == idx.starts.tolist()
    assert not np.array_equal(batches[0], idx.starts)


def test_perfect_model_zero_loss():
    model = linear_toy_model(exact_encoder=True)
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, size=100)
    y = simulate_linear_toy(u)
    idx = valid_starts(100, 6, 1, 1)
    loss = encoder_loss(model, u[:, None], y[:, None], idx.starts, 6)
    assert loss == pytest.approx(0.0, abs=1e-20)


def test_constant_zero_model_unit_loss():
    # model output identically 0 on unit-variance data: loss ~ 1 per channel
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=4, seed=0)
    model.h_params.flat[:] = 0.0
    rng = np.random.default_rng(1)
    n = 5000
    u = rng.normal(size=(n, 1))
    y = rng.normal(size=(n, 1))
    idx = valid_starts(n, 10, 2, 2)
    loss = encoder_loss(model, u, y, idx.starts, 10)
    assert loss == pytest.approx(1.0, abs=0.05)


def test_single_section_horizon_one():
    model = linear_toy_model()
    u = np.array([[0.5], [1.0], [0.0]])
    y = np.array([[0.1], [0.7], [0.2]])
    # encoder outputs zero, so y_hat = h(0) = 0 and the loss is y[1]^2
    loss = encoder_loss(model, u, y, np.array([1]), 1)
    assert loss == pytest.approx(0.7**2, abs=1e-15)


def test_batch_partition_invariance():
    model = build_model(2, 1, 1, 3, 3, hidden_layers=1, hidden_width=5, seed=2)
    rng = np.random.default_rng(2)
    u = rng.normal(size=(120, 1))
    y = rng.normal(size=(120, 1))
    idx = valid_starts(120, 5, 3, 3)
    full = encoder_loss(model, u, y, idx.starts, 5)
    total = 0.0
    for batch in batch_iter(idx, 13, seed=0, epoch=0):
        total += encoder_loss(model, u, y, batch, 5) * len(batch)
    assert total / len(idx) == pytest.approx(full, rel=1e-12)


def test_loss_nonnegative_and_zero_iff_perfect():
    model = linear_toy_model(exact_encoder=True)
    rng = np.random.default_rng(3)
    u = rng.uniform(-1, 1, size=60)
    y = simulate_linear_toy(u)
    idx = valid_starts(60, 4, 1, 1)
    assert encoder_loss(model, u[:, None], y[:, None], idx.starts, 4) == 0.0
    y_noisy = y + rng.normal(0, 0.1, size=60)
    assert encoder_loss(model, u[:, None], y_noisy[:, None], idx.starts, 4) > 0.0


@pytest.mark.parametrize(
    "noise", ["output-error", "linear-innovation", "general-innovation"]
)
def test_encoder_loss_gradients_tiny_model(noise):
    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=1,
                        hidden_width=3, seed=1)
    if noise == "linear-innovation":
        model.noise.gain[:] = [[0.2], [-0.1]]
    rng = np.random.default_rng(4)
    u = rng.normal(size=(20, 1))
    y = rng.normal(size=(20, 1))
    starts = valid_starts(20, 3, 2, 2).starts
    blocks = model.param_blocks()

    def fn(params):
        for name, flat in blocks.items():
            flat[:] = params[name]
        return encoder_loss(model, u, y, starts, 3, with_grad=True)

    report = grad_check(fn, {k: v.copy() for k, v in blocks.items()})
    assert report.passed, report


@pytest.mark.parametrize(
    "noise", ["output-error", "linear-innovation", "general-innovation"]
)
def test_backward_leaves_constants_without_gradient(noise, monkeypatch):
    # the reference tape also accumulates into constants, as backward once
    # did; the parameter gradients must not change by skipping that work
    tapes = []

    class Recording(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    class Accumulating(Recording):
        @staticmethod
        def _bump(parent, grad):
            parent.grad = grad if parent.grad is None else parent.grad + grad

    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=1,
                        hidden_width=3, seed=1)
    if noise == "linear-innovation":
        model.noise.gain[:] = [[0.2], [-0.1]]
    rng = np.random.default_rng(4)
    u = rng.normal(size=(20, 1))
    y = rng.normal(size=(20, 1))
    starts = valid_starts(20, 3, 2, 2).starts

    def constants():
        return [n for n in tapes[-1].nodes if n.op == "constant"]

    monkeypatch.setattr(loss, "Tape", Recording)
    value, grads = encoder_loss(model, u, y, starts, 3, with_grad=True)
    assert constants() and all(n.grad is None for n in constants())
    monkeypatch.setattr(loss, "Tape", Accumulating)
    ref_value, ref_grads = encoder_loss(model, u, y, starts, 3, with_grad=True)
    assert all(n.grad is not None for n in constants())
    assert value == ref_value
    assert grads.keys() == ref_grads.keys()
    assert all(np.array_equal(grads[k], ref_grads[k]) for k in grads)


def test_empty_index_subset_raises():
    model = linear_toy_model()
    with pytest.raises(EmptyIndexSetError):
        encoder_loss(model, np.zeros((10, 1)), np.zeros((10, 1)), np.array([]), 3)


@pytest.mark.parametrize(
    "noise", ["output-error", "linear-innovation", "general-innovation"]
)
def test_trainable_state_loss_gradients_tiny_model(noise):
    # f, h (K) and the x0 bank, with one bank row used by two sections
    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=1,
                        hidden_width=3, seed=1)
    if noise == "linear-innovation":
        model.noise.gain[:] = [[0.2], [-0.1]]
    rng = np.random.default_rng(6)
    u = rng.normal(size=(20, 1))
    y = rng.normal(size=(20, 1))
    starts = np.array([0, 5, 5, 12])
    positions = np.array([0, 1, 1, 2])
    states = rng.normal(0, 0.3, size=(3, 2))
    blocks = {k: v for k, v in model.param_blocks().items() if k != "psi"}
    blocks["x0"] = states.reshape(-1)

    def fn(params):
        for name, flat in blocks.items():
            flat[:] = params[name]
        return trainable_state_loss(
            model, u, y, starts, positions, states, 3, with_grad=True
        )

    report = grad_check(fn, {k: v.copy() for k, v in blocks.items()})
    assert report.passed, report
    _loss, grads = fn({k: v.copy() for k, v in blocks.items()})
    assert list(grads) == list(blocks)
    assert np.all(grads["x0"][2:4] != 0.0)  # the shared row


def test_trainable_state_loss_gradients_flow():
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=4, seed=5)
    rng = np.random.default_rng(5)
    u = rng.normal(size=(40, 1))
    y = rng.normal(size=(40, 1))
    starts = np.array([0, 4, 8])
    states = rng.normal(0, 0.1, size=(3, 2))
    loss, grads = trainable_state_loss(
        model, u, y, starts, np.array([0, 1, 2]), states, 4, with_grad=True
    )
    assert "psi" not in grads
    assert grads["x0"].shape == (6,)
    assert np.any(grads["x0"] != 0.0)
    assert np.any(grads["f"] != 0.0)


def test_full_prediction_loss_toy_zero():
    model = linear_toy_model()
    u = np.array([[1.0], [0.0], [0.0]])
    y = np.array([[0.0], [1.0], [0.5]])
    assert full_prediction_loss(model, u, y, np.zeros(1)) == pytest.approx(0.0, abs=1e-15)


def test_full_prediction_loss_matches_manual():
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=4, seed=8)
    rng = np.random.default_rng(8)
    u = rng.normal(size=(25, 1))
    y = rng.normal(size=(25, 1))
    x1 = rng.normal(size=2)
    loss = full_prediction_loss(model, u, y, x1)
    y_hat, _, _ = model.rollout_batch(x1[None], u[None], y[None])
    manual = np.mean(np.sum((y[None] - y_hat) ** 2, axis=2))
    assert loss == pytest.approx(manual, rel=1e-12)


def test_numeric_error_names_section():
    model = linear_toy_model(a=1e200)
    u = np.ones((30, 1))
    y = np.zeros((30, 1))
    states = np.full((2, 1), 5.0)
    with pytest.raises(NumericError) as err:
        trainable_state_loss(model, u, y, np.array([0, 10]), np.array([0, 1]),
                             states, 8)
    assert err.value.index in (0, 10)


@settings(max_examples=40, deadline=None)
@given(
    n_samples=st.integers(10, 200),
    horizon=st.integers(1, 8),
    lag=st.integers(0, 6),
    spacing=st.integers(1, 9),
)
def test_valid_starts_properties(n_samples, horizon, lag, spacing):
    count = n_samples - horizon - lag + 1
    if count < 1:
        with pytest.raises(EmptyIndexSetError):
            valid_starts(n_samples, horizon, lag, lag, spacing)
        return
    idx = valid_starts(n_samples, horizon, lag, lag, spacing)
    assert idx.starts[0] == lag
    assert idx.starts[-1] + horizon <= n_samples
    assert len(idx) == -(-count // spacing)
    assert np.all(np.diff(idx.starts) == spacing)
