import json
import warnings

import numpy as np
import pytest
from conftest import linear_toy_model, simulate_linear_toy
from hypothesis import given, settings
from hypothesis import strategies as st

from subnet.autodiff import NumericError
from subnet.data import IoDataset
from subnet.model import (
    CheckpointError,
    Normalization,
    build_model,
    load_model,
    save_model,
)


def test_encoder_input_length():
    model = build_model(2, 1, 1, 10, 10, hidden_layers=1, hidden_width=4)
    assert model.encoder_in_dim == 21
    assert model.psi_spec.in_dim == 21


def test_zero_weight_encoder_gives_zero_state():
    model = linear_toy_model()
    rng = np.random.default_rng(0)
    x0 = model.encode(rng.normal(size=(1, 1)), rng.normal(size=(2, 1)))
    assert np.array_equal(x0, np.zeros(1))


def test_oe_toy_rollout_oracle():
    model = linear_toy_model()
    u = np.array([1.0, 0.0, 0.0]).reshape(1, 3, 1)
    y_hat, x_hat, e_hat = model.rollout_batch(np.zeros((1, 1)), u, teacher_forced=False)
    assert np.allclose(y_hat[0, :, 0], [0.0, 1.0, 0.5], rtol=0, atol=1e-12)
    assert np.array_equal(e_hat, np.zeros_like(e_hat))


def test_general_innovation_toy_rollout_oracle():
    model = linear_toy_model(noise="general-innovation", c_e=0.1)
    u = np.zeros((1, 3, 1))
    y = np.ones((1, 3, 1))
    y_hat, _, e_hat = model.rollout_batch(np.zeros((1, 1)), u, y, teacher_forced=True)
    assert np.allclose(y_hat[0, :, 0], [0.0, 0.1, 0.14], rtol=0, atol=1e-12)
    assert np.allclose(e_hat[0, :, 0], [1.0, 0.9, 0.86], rtol=0, atol=1e-12)


def test_degenerate_horizon_one():
    model = linear_toy_model()
    y_hat, _, _ = model.rollout_batch(
        np.array([[0.3]]), np.ones((1, 1, 1)), teacher_forced=False
    )
    assert y_hat[0, 0, 0] == pytest.approx(0.3, abs=1e-12)


def test_prefix_property():
    model = build_model(3, 1, 1, 2, 2, hidden_layers=1, hidden_width=6, seed=4)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 3))
    u = rng.normal(size=(2, 8, 1))
    y = rng.normal(size=(2, 8, 1))
    full, _, _ = model.rollout_batch(x0, u, y)
    short, _, _ = model.rollout_batch(x0, u[:, :5], y[:, :5])
    assert np.array_equal(full[:, :5], short)


def test_linear_innovation_k_zero_matches_oe():
    oe = build_model(2, 1, 1, 3, 3, noise="output-error", hidden_layers=1,
                     hidden_width=5, seed=9)
    li = build_model(2, 1, 1, 3, 3, noise="linear-innovation", hidden_layers=1,
                     hidden_width=5, seed=9)
    assert np.array_equal(li.noise.gain, np.zeros((2, 1)))
    rng = np.random.default_rng(2)
    x0 = rng.normal(size=(3, 2))
    u = rng.normal(size=(3, 6, 1))
    y = rng.normal(size=(3, 6, 1))
    assert np.array_equal(oe.rollout_batch(x0, u, y)[0], li.rollout_batch(x0, u, y)[0])


def test_general_innovation_insensitive_to_innovation_matches_oe():
    oe = build_model(2, 1, 1, 2, 2, noise="output-error", hidden_layers=1,
                     hidden_width=5, seed=3)
    gi = build_model(2, 1, 1, 2, 2, noise="general-innovation", hidden_layers=1,
                     hidden_width=5, seed=3)
    # copy OE weights; zero the columns reading the innovation input
    gi.f_params.flat[:] = 0.0
    gi.f_params.view("w0")[:, : 2 + 1] = oe.f_params.view("w0")
    gi.f_params.view("b0")[:] = oe.f_params.view("b0")
    gi.f_params.view("w1")[:] = oe.f_params.view("w1")
    gi.f_params.view("b1")[:] = oe.f_params.view("b1")
    gi.f_params.view("bypass")[:, : 2 + 1] = oe.f_params.view("bypass")
    gi.h_params.flat[:] = oe.h_params.flat
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(2, 2))
    u = rng.normal(size=(2, 7, 1))
    y = rng.normal(size=(2, 7, 1))
    assert np.allclose(oe.rollout_batch(x0, u, y)[0], gi.rollout_batch(x0, u, y)[0],
                       rtol=0, atol=1e-14)


def test_encode_locality():
    model = build_model(2, 1, 1, 3, 4, hidden_layers=1, hidden_width=6, seed=7)
    rng = np.random.default_rng(3)
    u = rng.normal(size=(30, 1))
    y = rng.normal(size=(30, 1))
    n = model.lag
    x0 = model.initial_state(u, y)
    u2, y2 = u.copy(), y.copy()
    u2[n + 1 :] += 100.0
    y2[n + 1 :] -= 100.0
    assert np.array_equal(x0, model.initial_state(u2, y2))


@settings(max_examples=30, deadline=None)
@given(
    mean=st.floats(-10, 10),
    std=st.floats(0.01, 100),
    val=st.floats(-1e6, 1e6),
)
def test_normalization_round_trip(mean, std, val):
    norm = Normalization([0.0], [1.0], [mean], [std])
    y = np.array([[val]])
    assert np.allclose(norm.denorm_y(norm.norm_y(y)), y, rtol=1e-12, atol=1e-9)


def test_simulate_free_run_matches_reference():
    model = linear_toy_model(exact_encoder=True)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, size=200)
    y = simulate_linear_toy(u)
    ds = IoDataset(u, y)
    sim = model.simulate(ds, mode="free-run")
    assert sim.skip == 1
    assert np.all(np.isnan(sim.y_sim[:1]))
    assert np.allclose(sim.y_sim[1:, 0], y[1:], rtol=0, atol=1e-10)


def test_simulate_channel_mismatch_message():
    model = linear_toy_model()
    ds = IoDataset(np.zeros((20, 2)), np.ones((20, 1)) + np.arange(20)[:, None])
    with pytest.raises(ValueError, match="n_u=2"):
        model.simulate(ds)


def test_kstep_zero_column_equals_encoder_output_map():
    model = build_model(2, 1, 1, 3, 3, hidden_layers=1, hidden_width=6, seed=2)
    rng = np.random.default_rng(4)
    ds = IoDataset(rng.normal(size=(40, 1)), rng.normal(size=(40, 1)))
    t_idx, preds = model.kstep_predictions(ds, k_max=0)
    from subnet.nets import mlp_forward

    for i, t in enumerate(t_idx[:5]):
        x0 = model.encode(ds.u[t - 3 : t], ds.y[t - 3 : t + 1])
        expect = mlp_forward(model.h_spec, model.h_params, x0)
        assert np.allclose(preds[i, 0], expect, rtol=0, atol=1e-14)


def test_kstep_too_short_raises():
    model = linear_toy_model()
    ds = IoDataset(np.zeros((5, 1)), np.arange(5.0)[:, None])
    with pytest.raises(ValueError):
        model.kstep_predictions(ds, k_max=10)


def test_rollout_numeric_error_carries_step():
    # row 0 predicts 0, 1, 1e200, then x_3 = 1e400 overflows; row 1 stays at
    # 0. The overflow warns nothing, and the first non-finite step is named.
    model = linear_toy_model(a=1e200)
    u = np.ones((2, 6, 1))
    u[1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite prediction at step 3") as err:
            model.rollout_batch(np.zeros((2, 1)), u, teacher_forced=False)
    assert err.value.index == 3


def test_checkpoint_round_trip(tmp_path):
    gain = np.array([[0.3], [-0.1]])
    model = build_model(2, 1, 1, 4, 3, noise="linear-innovation", hidden_layers=1,
                        hidden_width=5, seed=6,
                        norm=Normalization([0.1], [2.0], [-0.4], [0.5]))
    model.noise.gain[:] = gain
    path = tmp_path / "model.bin"
    save_model(model, path)
    loaded = load_model(path)
    for name, flat in model.param_blocks().items():
        assert np.array_equal(flat, loaded.param_blocks()[name])
    assert np.array_equal(loaded.noise.gain, gain)
    assert np.array_equal(loaded.norm.y_std, model.norm.y_std)
    rng = np.random.default_rng(8)
    ds = IoDataset(rng.normal(size=(50, 1)), rng.normal(size=(50, 1)))
    assert np.array_equal(model.simulate(ds).y_sim[4:], loaded.simulate(ds).y_sim[4:])


def test_checkpoint_truncated(tmp_path):
    model = linear_toy_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "model.bin"
    path.write_bytes(b"NOTAMODEL" + b"\x00" * 64)
    with pytest.raises(CheckpointError, match="magic"):
        load_model(path)


def test_checkpoint_bad_version(tmp_path):
    model = linear_toy_model()
    path = tmp_path / "model.bin"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[6] = 99  # version byte follows the 6-byte magic
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError, match="version"):
        load_model(path)


def _rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path`."""
    raw = path.read_bytes()
    length = int.from_bytes(raw[7:11], "little")
    header = json.loads(raw[11 : 11 + length])
    edit(header)
    new = json.dumps(header).encode()
    path.write_bytes(raw[:7] + len(new).to_bytes(4, "little") + new + raw[11 + length :])


HEADER_FIELDS = (
    "n_x", "n_u", "n_y", "n_a", "n_b", "noise",
    "f_spec", "h_spec", "psi_spec", "norm", "blocks",
)


@pytest.mark.parametrize("field", HEADER_FIELDS)
def test_checkpoint_missing_header_field(tmp_path, field):
    path = tmp_path / "model.bin"
    save_model(linear_toy_model(), path)
    _rewrite_header(path, lambda header: header.pop(field))
    with pytest.raises(CheckpointError, match=f"'{field}' is missing"):
        load_model(path)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("n_x", "1", "must be a JSON int"),
        ("n_a", True, "must be a JSON int"),
        ("norm", [], "must be a JSON dict"),
        ("blocks", [["f", -1]], "not \\[name, size\\]"),
        ("blocks", [["f", 3], ["h", 2]], "payload size"),
        ("f_spec", {"in_dim": 2}, "inconsistent header"),
        ("noise", "linear-innovation", "lacks block 'K'"),
    ],
)
def test_checkpoint_bad_header_field(tmp_path, field, value, message):
    path = tmp_path / "model.bin"
    save_model(linear_toy_model(), path)
    _rewrite_header(path, lambda header: header.update({field: value}))
    with pytest.raises(CheckpointError, match=message):
        load_model(path)


def test_build_model_dim_validation():
    model = build_model(2, 1, 1, 3, 3, hidden_layers=1, hidden_width=4)
    with pytest.raises(ValueError):
        # h net sized for the wrong state dimension
        type(model)(
            3, 1, 1, 3, 3,
            model.f_spec, model.h_spec, model.psi_spec,
            model.f_params, model.h_params, model.psi_params,
            model.noise,
        )
