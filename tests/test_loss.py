import warnings

import numpy as np
import pytest
from conftest import first_divergence, linear_toy_model, roll_windows, simulate_linear_toy
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_tape import ReferenceTape, mlp_flat_grad, mlp_graph, mlp_leaves

from subnet import loss
from subnet.autodiff import NumericError, Tape, grad_check
from subnet.data import benchmark_splits
from subnet.loss import (
    EmptyIndexSetError,
    batch_iter,
    encoder_loss,
    full_prediction_loss,
    trainable_state_loss,
    valid_starts,
)
from subnet.model import build_model
from subnet.nets import mlp_forward
from subnet.optim import fit_normalization

NOISES = ["output-error", "linear-innovation", "general-innovation"]


def _reference_rollout_graph(tape, model, u_roll, y_roll, x0_node, param_nodes):
    """The batch rollout loss as a per-step tape graph, the reference for the
    hand-written adjoint: mean_t v_t over the batch, as a scalar node."""
    horizon = u_roll.shape[1]
    tag = model.noise.tag
    if tag == "linear-innovation":
        zero_x = tape.constant(np.zeros(model.n_x))
    errors = []
    x = x0_node
    for k in range(horizon):
        y_hat = mlp_graph(tape, model.h_spec, param_nodes["h"], x)
        err = tape.sub(tape.constant(y_roll[:, k]), y_hat)
        errors.append(err)
        if k + 1 < horizon:
            parts = [x, tape.constant(u_roll[:, k])]
            if tag == "general-innovation":
                parts.append(err)
            x = mlp_graph(tape, model.f_spec, param_nodes["f"], tape.concat(parts, axis=1))
            if tag == "linear-innovation":
                x = tape.add(x, tape.affine(err, param_nodes["K"], zero_x))
    stacked = errors[0] if horizon == 1 else tape.concat(errors, axis=1)
    return tape.scale(tape.mean(tape.square(stacked)), model.n_y)


def _reference_leaves(tape, model, with_encoder):
    """Leaves for every block of f, h (and psi), plus the gain K when present."""
    nets = {"f": model.f_params, "h": model.h_params}
    if with_encoder:
        nets["psi"] = model.psi_params
    leaves = {name: mlp_leaves(tape, name, params) for name, params in nets.items()}
    if model.noise.tag == "linear-innovation":
        leaves["K"] = tape.parameter("K", model.noise.gain)
    return leaves


def _reference_x0(tape, model, u, y, starts, leaves, positions, states):
    """The initial-state node: psi's graph over the encoder windows, or a
    gather of rows `positions` from the bank `states` when it is given."""
    if states is None:
        u_enc, y_enc = loss._enc_windows(u, y, starts, model.n_a, model.n_b)
        b = len(starts)
        enc_in = tape.constant(
            np.concatenate([u_enc.reshape(b, -1), y_enc.reshape(b, -1)], axis=1)
        )
        return mlp_graph(tape, model.psi_spec, leaves["psi"], enc_in)
    leaves["x0"] = tape.parameter("x0", states)
    return tape.gather(leaves["x0"], positions)


def _reference_loss(model, u, y, starts, horizon, positions=None, states=None):
    """(loss, grads) through the per-step graph: encoder initial states, or
    rows `positions` of the trainable bank `states` when it is given."""
    starts = np.asarray(starts)
    u_roll, y_roll = roll_windows(u, y, starts, horizon)
    tape = ReferenceTape()
    leaves = _reference_leaves(tape, model, states is None)
    x0_node = _reference_x0(tape, model, u, y, starts, leaves, positions, states)
    root = _reference_rollout_graph(tape, model, u_roll, y_roll, x0_node, leaves)
    grads = tape.backward(root)
    specs = {"f": model.f_spec, "h": model.h_spec, "psi": model.psi_spec}
    return float(root.value), {
        name: mlp_flat_grad(specs[name], name, grads) if name in specs else grads[name]
        for name in leaves
    }


def _reference_source_loss(model, u, y, starts, horizon, positions=None, states=None):
    """(loss, grads) with the initial-state node of `_reference_loss` in
    front of the package's hand-derived rollout node, which takes f, h (and
    K) as flat leaves."""
    starts = np.asarray(starts)
    u_roll, y_roll = roll_windows(u, y, starts, horizon)
    tape = ReferenceTape()
    blocks = model.param_blocks()
    if states is not None:
        del blocks["psi"]
    leaves = {
        name: mlp_leaves(tape, name, model.psi_params) if name == "psi"
        else tape.parameter(name, flat)
        for name, flat in blocks.items()
    }
    x0_node = _reference_x0(tape, model, u, y, starts, leaves, positions, states)
    root = loss._rollout_loss(tape, model, u_roll, y_roll, x0_node, leaves, starts)
    grads = tape.backward(root)
    return float(root.value), {
        name: mlp_flat_grad(model.psi_spec, name, grads) if name == "psi" else grads[name]
        for name in leaves
    }


def _adjoint_case(noise, n_y, n_samples, **net):
    """A 3-state model whose innovation paths are all live, and its data.

    `net` overrides the networks' defaults of 2 hidden tanh layers of width
    8 with bypass.
    """
    net = {"hidden_layers": 2, "hidden_width": 8, **net}
    model = build_model(3, 1, n_y, 2, 2, noise=noise, seed=11, **net)
    rng = np.random.default_rng(12)
    if noise == "linear-innovation":
        model.noise.gain[:] = rng.normal(0, 0.3, size=(3, n_y))
    if noise == "general-innovation":
        w0 = model.f_params.view("w0")
        w0[:, -n_y:] = rng.normal(0, 0.3, size=(len(w0), n_y))
    if model.f_spec.bypass:
        model.f_params.view("bypass")[:] *= 0.5  # a stable free run
    u = rng.normal(size=(n_samples, 1))
    y = rng.normal(size=(n_samples, n_y))
    return model, u, y


@pytest.fixture()
def recorded_tapes(monkeypatch):
    """The tapes that the losses build, in order."""
    tapes = []

    class Recording(Tape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(loss, "Tape", Recording)
    return tapes


def _assert_grads_close(grads, ref, rtol):
    assert list(grads) == list(ref)
    for name in ref:
        scale = np.abs(ref[name]).max()
        assert scale > 0.0, name
        assert np.abs(grads[name] - ref[name]).max() <= rtol * scale, name


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


def test_batch_iter_uses_the_whole_seed():
    # seeds 0 and 2**31 agree in their low 31 bits, and build_model already
    # tells them apart, so the batch order must differ too
    idx = valid_starts(1000, 5, 2, 2)
    first = [next(batch_iter(idx, 256, seed, epoch=0)) for seed in (0, 2**31)]
    assert not np.array_equal(*first)


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
    y_hat, _ = model.rollout_batch(x1[None], u[None], y[None])
    manual = np.mean(np.sum((y[None] - y_hat) ** 2, axis=2))
    assert loss == pytest.approx(manual, rel=1e-12)


def test_numeric_error_names_section():
    # both sections overflow at step 2 (x_2 = 1e200 * 5e200); the first is named
    model = linear_toy_model(a=1e200)
    u = np.ones((30, 1))
    y = np.zeros((30, 1))
    states = np.full((2, 1), 5.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            trainable_state_loss(model, u, y, np.array([0, 10]), np.array([0, 1]),
                                 states, 8)
    assert str(err.value) == "numeric divergence in section starting at 0 (step 2)"
    assert err.value.index == 0


def _raises_numeric_error(fn, *args, **kwargs):
    """The `NumericError` that `fn` raises with every warning an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            fn(*args, **kwargs)
    return err.value


def _section_named(err, start, step):
    assert str(err) == f"numeric divergence in section starting at {start} (step {step})"
    assert err.index == start


def test_numeric_error_names_earliest_step_before_lowest_row():
    # the second section's state 1e150 overflows at step 1, before the
    # first section's state 5 does at step 2
    model = linear_toy_model(a=1e200)
    u = np.ones((30, 1))
    y = np.zeros((30, 1))
    states = np.array([[5.0], [1e150]])
    err = _raises_numeric_error(trainable_state_loss, model, u, y, np.array([0, 10]),
                                np.array([0, 1]), states, 8)
    _section_named(err, 10, 1)


def _benchmark_batch():
    """The default model, the normalized training split of
    `benchmark_splits(3)` and the first B=256 batch of its T=40 sections."""
    train, _val, _test = benchmark_splits(3)
    norm = fit_normalization(train)
    model = build_model(4, 1, 1, 10, 10, norm=norm)
    starts = next(batch_iter(valid_starts(len(train), 40, 10, 10), 256, 0, 0))
    return model, norm.norm_u(train.u), norm.norm_y(train.y), starts


@pytest.mark.parametrize("with_grad", [False, True])
@pytest.mark.parametrize("bias", [1e160, 1e308])
def test_overflowing_squared_error_names_section(bias, with_grad):
    # h's output bias makes every prediction finite but its squared error
    # not, from step 0 in every row: the first row's section is named
    model, u, y, starts = _benchmark_batch()
    model.h_params.layers[-1][1][:] = bias
    err = _raises_numeric_error(encoder_loss, model, u, y, starts, 40,
                                with_grad=with_grad)
    _section_named(err, starts[0], 0)


@pytest.mark.parametrize("with_grad", [False, True])
@pytest.mark.parametrize("bias", [3e152, 1e154])
def test_overflowing_mean_of_finite_squares_names_section(bias, with_grad):
    # every squared error is finite, but their mean overflows (at 1e152 it
    # is a finite 1e304): each prediction rounds to the bias, so all squares
    # tie and the largest one's earliest step and lowest row are the first
    # row's step 0
    model, u, y, starts = _benchmark_batch()
    model.h_params.layers[-1][1][:] = bias
    x0 = model.encode(*loss._enc_windows(u, y, starts, 10, 10))
    y_hat, _ = model.rollout_batch(x0, *roll_windows(u, y, starts, 40)[:1])
    with np.errstate(over="ignore"):
        assert np.isfinite((y[starts[:, None] + np.arange(40)] - y_hat) ** 2).all()
    err = _raises_numeric_error(encoder_loss, model, u, y, starts, 40,
                                with_grad=with_grad)
    _section_named(err, starts[0], 0)


@pytest.mark.parametrize("with_grad", [False, True])
def test_overflowing_mean_names_largest_squared_error(with_grad):
    # y_hat = 2^k x0 with y = 0: sections 10 and 20 (x0 = 2e151) tie on the
    # largest square, 4^9 * 4e302, at step 9; each square is finite, but
    # their sum is not
    model = linear_toy_model(a=2.0)
    states = np.array([[1e150], [2e151], [2e151]])
    err = _raises_numeric_error(trainable_state_loss, model, np.zeros((30, 1)),
                                np.zeros((30, 1)), np.array([0, 10, 20]),
                                np.array([0, 1, 2]), states, 10, with_grad=with_grad)
    _section_named(err, 10, 9)


@pytest.mark.parametrize("with_grad", [False, True])
def test_one_diverging_row_of_256_is_named(with_grad):
    # row 137's state 1e200 keeps its predictions finite, but their squared
    # errors overflow at step 0; every other state is zero
    model, u, y, starts = _benchmark_batch()
    states = np.zeros((256, 4))
    states[137] = 1e200
    err = _raises_numeric_error(trainable_state_loss, model, u, y, starts,
                                np.arange(256), states, 40, with_grad=with_grad)
    _section_named(err, starts[137], 0)


@pytest.mark.parametrize("with_grad", [False, True])
def test_overflowing_encoder_names_section_at_step_0(with_grad):
    # psi's output layer overflows in its matmul on both paths, silently;
    # the first non-finite state's section diverges at step 0
    model, u, y, starts = _benchmark_batch()
    model.psi_params.layers[-1][0][:] = 1e308
    u_enc, y_enc = loss._enc_windows(u, y, starts, 10, 10)
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = mlp_forward(model.psi_spec, model.psi_params,
                         np.concatenate([u_enc[:, :, 0], y_enc[:, :, 0]], axis=1))
    row = np.flatnonzero(~np.isfinite(x0).all(axis=1))[0]
    err = _raises_numeric_error(encoder_loss, model, u, y, starts, 40,
                                with_grad=with_grad)
    _section_named(err, starts[row], 0)


@pytest.mark.parametrize("noise", NOISES)
def test_divergence_located_in_batch_matches_per_row_reruns(noise):
    # f's bypass at 1e80 times its Xavier value multiplies the state by
    # about 1e80 a step, so states of 1 to 1e280 overflow at steps 1 to 4;
    # each row's own B=1 rollout is the reference
    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=1, hidden_width=8,
                        seed=3)
    model.f_params.view("bypass")[:] *= 1e80
    if noise == "linear-innovation":
        model.noise.gain[:] = 0.1
    rng = np.random.default_rng(3)
    b, horizon = 64, 6
    u = rng.normal(size=(200, 1))
    y = rng.normal(size=(200, 1))
    starts = np.arange(b) * 2
    states = rng.normal(size=(b, 2)) * 10.0 ** rng.choice([0, 70, 140, 210, 280], (b, 1))
    u_roll, y_roll = roll_windows(u, y, starts, horizon)
    step, row = first_divergence(model, states, u_roll, y_roll)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericError) as err:
            model.rollout_batch(states, u_roll, y_roll)
    assert (err.value.index, err.value.row) == (step, row)
    err = _raises_numeric_error(trainable_state_loss, model, u, y, starts,
                                np.arange(b), states, horizon)
    _section_named(err, starts[row], step)


@pytest.mark.parametrize("batch", [1, 7])
@pytest.mark.parametrize("n_y", [1, 2])
@pytest.mark.parametrize("noise", NOISES)
def test_adjoint_matches_per_step_graph(noise, n_y, batch):
    model, u, y = _adjoint_case(noise, n_y, 120)
    horizon = 9
    starts = valid_starts(120, horizon, 2, 2, spacing=13).starts[:batch]
    value, grads = encoder_loss(model, u, y, starts, horizon, with_grad=True)
    ref_value, ref_grads = _reference_loss(model, u, y, starts, horizon)
    assert np.array_equal(value, ref_value)
    assert np.array_equal(encoder_loss(model, u, y, starts, horizon), ref_value)
    _assert_grads_close(grads, ref_grads, 1e-12)
    states = np.random.default_rng(13).normal(0, 0.5, size=(batch, 3))
    positions = np.arange(batch)
    value, grads = trainable_state_loss(
        model, u, y, starts, positions, states, horizon, with_grad=True
    )
    ref_value, ref_grads = _reference_loss(
        model, u, y, starts, horizon, positions, states
    )
    assert np.array_equal(value, ref_value)
    assert np.array_equal(
        trainable_state_loss(model, u, y, starts, positions, states, horizon), ref_value
    )
    _assert_grads_close(grads, ref_grads, 1e-12)


@pytest.mark.parametrize("noise", NOISES)
def test_adjoint_matches_per_step_graph_long_record(noise):
    model, u, y = _adjoint_case(noise, 1, 2000)
    x1 = np.array([0.3, -0.2, 0.1])
    value, grads = full_prediction_loss(model, u, y, x1, with_grad=True)
    ref_value, ref_grads = _reference_loss(
        model, u, y, [0], 2000, np.array([0]), x1.reshape(1, 3)
    )
    assert np.array_equal(value, ref_value)
    _assert_grads_close(grads, ref_grads, 1e-12)


@pytest.mark.parametrize("noise", NOISES)
def test_workspace_reuse_is_bit_exact(noise, monkeypatch):
    # gradient calls of falling and rising size share one workspace: each
    # result equals the same call on an empty workspace, and a call that
    # fits the buffers reuses them instead of growing or copying them
    model, u, y = _adjoint_case(noise, 1, 3000)
    starts = valid_starts(len(u), 8, 2, 2).starts
    calls = [
        lambda: encoder_loss(model, u, y, starts[:256], 8, with_grad=True),
        lambda: encoder_loss(model, u, y, starts[300:523], 8, with_grad=True),
        # B=1 over 3000 steps needs more rows than 256 sections of 8 steps
        lambda: full_prediction_loss(model, u, y, np.array([0.3, -0.2, 0.1]),
                                     with_grad=True),
        lambda: encoder_loss(model, u, y, starts[:256], 8, with_grad=True),
    ]

    def reused(before):
        now = loss._workspace
        return now.keys() == before.keys() and all(now[r] is before[r] for r in before)

    monkeypatch.setattr(loss, "_workspace", {})
    shared = [calls[0]()]
    first = dict(loss._workspace)
    shared.append(calls[1]())
    assert reused(first)
    shared.append(calls[2]())
    assert not reused(first)  # the long record grew buffers
    grown = dict(loss._workspace)
    shared.append(calls[3]())
    assert reused(grown)
    for call, (value, grads) in zip(calls, shared):
        monkeypatch.setattr(loss, "_workspace", {})
        ref_value, ref_grads = call()
        assert np.array_equal(value, ref_value)
        assert list(grads) == list(ref_grads)
        for name in grads:
            assert np.array_equal(grads[name], ref_grads[name]), name


@pytest.mark.parametrize("noise", NOISES)
def test_default_gradient_workspace_footprint(noise, monkeypatch):
    # a default-model gradient at T=40, B=256: under output-error, h and psi
    # finish with their deltas over their activations, and h's activation
    # buffers then hold f's deltas, so no delta role exists and the
    # workspace is 4 (T, B, 64) buffers and small ones. The innovation
    # structures keep their separate delta roles. Every gradient still
    # matches the per-step reference graph
    model = build_model(4, 1, 1, 10, 10, noise=noise, seed=2)
    rng = np.random.default_rng(3)
    if noise == "linear-innovation":
        model.noise.gain[:] = rng.normal(0, 0.1, size=(4, 1))
    if noise == "general-innovation":
        model.f_params.view("w0")[:, -1] = rng.normal(0, 0.1, size=64)
    u = rng.normal(size=(400, 1))
    y = rng.normal(size=(400, 1))
    starts = valid_starts(400, 40, 10, 10).starts[:256]
    monkeypatch.setattr(loss, "_workspace", {})
    value, grads = encoder_loss(model, u, y, starts, 40, with_grad=True)
    deltas = sorted(role for role in loss._workspace if "_deltas" in role)
    if noise == "output-error":
        assert deltas == []
        assert sum(buf.nbytes for buf in loss._workspace.values()) <= 22 * 2**20
    else:
        assert deltas == ["f_deltas0", "f_deltas1", "h_deltas0", "h_deltas1"]
    ref_value, ref_grads = _reference_loss(model, u, y, starts, 40)
    assert np.array_equal(value, ref_value)
    _assert_grads_close(grads, ref_grads, 1e-12)


@pytest.mark.parametrize("noise", NOISES)
@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("hidden_layers", [0, 2])
@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
def test_adjoint_gradients_every_net_shape(activation, hidden_layers, bypass, noise):
    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=hidden_layers,
                        hidden_width=3, activation=activation, bypass=bypass, seed=1)
    rng = np.random.default_rng(7)
    if noise == "linear-innovation":
        model.noise.gain[:] = [[0.2], [-0.1]]
    if noise == "general-innovation":
        w0 = model.f_params.view("w0")
        w0[:, -1] = rng.normal(0, 0.5, size=len(w0))
    model.f_params.flat[:] += rng.normal(0, 0.1, size=model.f_spec.param_count)
    model.h_params.flat[:] += rng.normal(0, 0.1, size=model.h_spec.param_count)
    u = rng.normal(size=(20, 1))
    y = rng.normal(size=(20, 1))
    starts = np.array([0, 5, 12])
    states = rng.normal(0, 0.5, size=(3, 2))
    blocks = {k: v for k, v in model.param_blocks().items() if k != "psi"}
    blocks["x0"] = states.reshape(-1)

    def fn(params):
        for name, flat in blocks.items():
            flat[:] = params[name]
        return trainable_state_loss(
            model, u, y, starts, np.arange(3), states, 4, with_grad=True
        )

    report = grad_check(fn, {k: v.copy() for k, v in blocks.items()})
    assert report.passed, report


def test_full_prediction_tape_has_no_per_step_graph(recorded_tapes):
    model, u, y = _adjoint_case("general-innovation", 1, 500)
    sizes = []
    for n_samples in (50, 500):
        full_prediction_loss(model, u[:n_samples], y[:n_samples], np.zeros(3),
                             with_grad=True)
        sizes.append(len(recorded_tapes[-1].nodes))
    assert sizes[0] == sizes[1]


@pytest.mark.parametrize("noise", NOISES)
def test_gradient_tape_holds_leaves_and_two_nodes(noise, recorded_tapes):
    # one flat leaf per block (f, h, psi or x0, K), then the initial-state
    # node and the rollout node
    model, u, y = _adjoint_case(noise, 1, 120)
    starts = valid_starts(120, 9, 2, 2).starts[:5]
    encoder_loss(model, u, y, starts, 9, with_grad=True)
    trainable_state_loss(model, u, y, starts, np.arange(5), np.zeros((5, 3)), 9,
                         with_grad=True)
    leaves = 4 if noise == "linear-innovation" else 3
    assert [[n.op for n in t.nodes] for t in recorded_tapes] == [
        ["parameter"] * leaves + ["custom"] * 2
    ] * 2


@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("hidden_layers", [0, 2])
@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("n_y", [1, 2])
@pytest.mark.parametrize("noise", NOISES)
def test_source_backwards_match_reference_tape(noise, n_y, activation, hidden_layers,
                                               bypass):
    # psi's hand backward and the bank's np.add.at against psi's graph and a
    # gather on the reference tape, both in front of the same rollout node.
    # tanh and relu match bit for bit; sigmoid's derivative is formed as
    # g*((1-a)*a) by hand and as (g*a)*(1-a) on the tape, a last-bit
    # difference
    model, u, y = _adjoint_case(noise, n_y, 400, activation=activation,
                                hidden_layers=hidden_layers, bypass=bypass)
    rng = np.random.default_rng(14)
    starts = rng.permutation(valid_starts(400, 9, 2, 2).starts)
    states = rng.normal(0, 0.5, size=(100, 3))
    for b in (256, 223, 1):
        # the bank rows repeat, so the backward sums into them
        positions = rng.integers(0, len(states), size=b)
        for bank in (None, states):
            args = (model, u, y, starts[:b], 9)
            if bank is None:
                value, grads = encoder_loss(*args, with_grad=True)
                forward = encoder_loss(*args)
                ref_value, ref_grads = _reference_source_loss(*args)
            else:
                value, grads = trainable_state_loss(*args[:4], positions, bank, 9,
                                                    with_grad=True)
                forward = trainable_state_loss(*args[:4], positions, bank, 9)
                ref_value, ref_grads = _reference_source_loss(*args, positions, bank)
            where = f"B={b}, {'encoder' if bank is None else 'bank'}"
            assert np.array_equal(value, ref_value), where
            assert np.array_equal(forward, ref_value), where
            if activation == "sigmoid":
                _assert_grads_close(grads, ref_grads, 1e-12)
            else:
                assert list(grads) == list(ref_grads), where
                for name in grads:
                    assert np.array_equal(grads[name], ref_grads[name]), (where, name)


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
