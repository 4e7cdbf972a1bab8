import json
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import linear_toy_model, roll_windows, simulate_linear_toy
from hypothesis import given, settings
from hypothesis import strategies as st

import subnet.model
from subnet.analysis import free_run_nrms
from subnet.autodiff import NumericError
from subnet.data import IoDataset, SimSystemConfig, generate_sim_system
from subnet.loss import _CHUNK, _enc_windows
from subnet.model import (
    NOISE_STRUCTURES,
    CheckpointError,
    Normalization,
    build_model,
    load_model,
    save_model,
)
from subnet.nets import mlp_forward
from subnet.optim import fit_normalization


def test_encoder_input_length():
    model = build_model(2, 1, 1, 10, 10, hidden_layers=1, hidden_width=4)
    assert model.encoder_in_dim == 21
    assert model.psi_spec.in_dim == 21


def test_zero_weight_encoder_gives_zero_state():
    model = linear_toy_model()
    rng = np.random.default_rng(0)
    x0 = model.encode(rng.normal(size=(1, 1, 1)), rng.normal(size=(1, 2, 1)))
    assert np.array_equal(x0, np.zeros((1, 1)))


def test_oe_toy_rollout_oracle():
    model = linear_toy_model()
    u = np.array([1.0, 0.0, 0.0]).reshape(1, 3, 1)
    y_hat, e_hat = model.rollout_batch(np.zeros((1, 1)), u)
    assert np.allclose(y_hat[0, :, 0], [0.0, 1.0, 0.5], rtol=0, atol=1e-12)
    assert np.array_equal(e_hat, np.zeros_like(e_hat))


def test_general_innovation_toy_rollout_oracle():
    model = linear_toy_model(noise="general-innovation", c_e=0.1)
    u = np.zeros((1, 3, 1))
    y = np.ones((1, 3, 1))
    y_hat, e_hat = model.rollout_batch(np.zeros((1, 1)), u, y)
    assert np.allclose(y_hat[0, :, 0], [0.0, 0.1, 0.14], rtol=0, atol=1e-12)
    assert np.allclose(e_hat[0, :, 0], [1.0, 0.9, 0.86], rtol=0, atol=1e-12)


def test_degenerate_horizon_one():
    model = linear_toy_model()
    y_hat, _ = model.rollout_batch(np.array([[0.3]]), np.ones((1, 1, 1)))
    assert y_hat[0, 0, 0] == pytest.approx(0.3, abs=1e-12)


def test_prefix_property():
    model = build_model(3, 1, 1, 2, 2, hidden_layers=1, hidden_width=6, seed=4)
    rng = np.random.default_rng(1)
    x0 = rng.normal(size=(2, 3))
    u = rng.normal(size=(2, 8, 1))
    y = rng.normal(size=(2, 8, 1))
    full, _ = model.rollout_batch(x0, u, y)
    short, _ = model.rollout_batch(x0, u[:, :5], y[:, :5])
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

    def state(u, y):
        return model.encode(*_enc_windows(u, y, [n], model.n_a, model.n_b))

    x0 = state(u, y)
    u2, y2 = u.copy(), y.copy()
    u2[n + 1 :] += 100.0
    y2[n + 1 :] -= 100.0
    assert np.array_equal(x0, state(u2, y2))


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


@pytest.mark.parametrize(
    "field, value, kind",
    [
        ("u_mean", np.nan, "finite"),
        ("y_mean", -np.inf, "finite"),
        ("u_std", np.inf, "finite and positive"),
        ("y_std", 0.0, "finite and positive"),
        ("y_std", -1.0, "finite and positive"),
    ],
)
def test_normalization_requires_finite_values(field, value, kind):
    values = {"u_mean": [0.0], "u_std": [1.0], "y_mean": [0.0], "y_std": [1.0]}
    values[field] = [value]
    with pytest.raises(ValueError, match=f"^norm.{field} must be {kind}, got"):
        Normalization(**values)


def test_encoder_overflow_raises_numeric_error():
    # psi = 10 * newest y overflows on y = 1e308: a NumericError, and no
    # RuntimeWarning from the matmul (the suite turns one into a failure)
    model = linear_toy_model(exact_encoder=True)
    model.psi_params.view("w0")[0, -1] = 10.0
    with pytest.raises(NumericError, match="non-finite initial state from the encoder"):
        model.encode(np.zeros((2, 1, 1)), np.array([[[0.0], [1.0]], [[0.0], [1e308]]]))


def test_kstep_encoder_error_is_raised_at_once():
    # the first block's rollout fails (x = 1e200 * x + u from u[500] = 1),
    # and the second block's encoder overflows on y[2000] = 1e308: the
    # encoder error has no step to compare, so it ends the call
    model = linear_toy_model(a=1e200, exact_encoder=True)
    model.psi_params.view("w0")[0, -1] = 10.0
    u = np.zeros((3200, 1))
    u[500] = 1.0
    y = np.zeros((3200, 1))
    y[2000] = 1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="encoder") as err:
            model.kstep_predictions(IoDataset(u, y), 40)
    assert err.value.index is None


def test_simulate_free_run_matches_reference():
    model = linear_toy_model(exact_encoder=True)
    rng = np.random.default_rng(11)
    u = rng.uniform(-1, 1, size=200)
    y = simulate_linear_toy(u)
    ds = IoDataset(u, y)
    sim = model.simulate(ds)
    assert sim.skip == 1
    assert np.all(np.isnan(sim.y_sim[:1]))
    assert np.allclose(sim.y_sim[1:, 0], y[1:], rtol=0, atol=1e-10)


@pytest.mark.parametrize("init", ["zeros", "bank", None])
def test_simulate_rejects_an_unknown_init(init):
    # a misspelt init used to pick the encoder without a word
    model = linear_toy_model()
    rng = np.random.default_rng(3)
    ds = IoDataset(rng.normal(size=30), rng.normal(size=30))
    with pytest.raises(ValueError, match="'encoder' or 'zero'"):
        model.simulate(ds, init=init)
    with pytest.raises(ValueError, match="'encoder' or 'zero'"):
        free_run_nrms(model, ds, init)


def test_simulate_channel_mismatch_message():
    model = linear_toy_model()
    ds = IoDataset(np.zeros((20, 2)), np.ones((20, 1)) + np.arange(20)[:, None])
    with pytest.raises(ValueError, match="n_u=2"):
        model.simulate(ds)


@pytest.mark.parametrize("noise", NOISE_STRUCTURES)
def test_full_depth_kstep_is_the_whole_record_teacher_forced_rollout(noise):
    # the full-depth k-step prediction has one start, at lag, and is the
    # teacher-forced rollout over the whole normalized record, denormalized;
    # under output-error it is also the free-run simulation
    model = build_model(3, 1, 1, 3, 2, noise=noise, hidden_layers=1, hidden_width=6,
                        seed=5, norm=Normalization([0.1], [2.0], [-0.4], [0.5]))
    rng = np.random.default_rng(6)
    if noise == "linear-innovation":
        model.noise.gain[:] = rng.normal(0, 0.3, size=(3, 1))
    if noise == "general-innovation":
        model.f_params.view("w0")[:, -1] = rng.normal(0, 0.3, size=6)
    ds = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=300, seed=7))
    n = model.lag
    t_idx, preds = model.kstep_predictions(ds, len(ds) - n - 1)
    assert t_idx.tolist() == [n]

    u = model.norm.norm_u(ds.u)
    y = model.norm.norm_y(ds.y)
    x0 = model.encode(*_enc_windows(u, y, [n], model.n_a, model.n_b))
    y_hat, e_hat = model.rollout_batch(x0, u[None, n:], y[None, n:])
    assert e_hat.any()
    assert np.array_equal(preds, model.norm.denorm_y(y_hat))
    sim = model.simulate(ds)
    assert np.array_equal(preds[0], sim.y_sim[n:]) == (noise == "output-error")


def test_encode_rejects_an_unbatched_window():
    model = build_model(2, 1, 1, 3, 4, hidden_layers=1, hidden_width=6, seed=7)
    with pytest.raises(ValueError, match=r"must be \(B, n_b=4, n_u=1\), got \(4, 1\)"):
        model.encode(np.zeros((4, 1)), np.zeros((4, 1)))
    with pytest.raises(ValueError, match=r"must be \(B, n_a\+1=4, n_y=1\), got \(4, 1\)"):
        model.encode(np.zeros((1, 4, 1)), np.zeros((4, 1)))


def test_kstep_zero_column_equals_encoder_output_map():
    model = build_model(2, 1, 1, 3, 3, hidden_layers=1, hidden_width=6, seed=2)
    rng = np.random.default_rng(4)
    ds = IoDataset(rng.normal(size=(40, 1)), rng.normal(size=(40, 1)))
    t_idx, preds = model.kstep_predictions(ds, k_max=0)
    for i, t in enumerate(t_idx[:5]):
        x0 = model.encode(ds.u[None, t - 3 : t], ds.y[None, t - 3 : t + 1])
        expect = mlp_forward(model.h_spec, model.h_params, x0)
        assert np.allclose(preds[i, 0], expect, rtol=0, atol=1e-14)


def test_kstep_too_short_raises():
    model = linear_toy_model()
    ds = IoDataset(np.zeros((5, 1)), np.arange(5.0)[:, None])
    with pytest.raises(ValueError):
        model.kstep_predictions(ds, k_max=10)


def _one_rollout(model, ds, t_idx, k_max):
    u = model.norm.norm_u(ds.u)
    y = model.norm.norm_y(ds.y)
    x0 = model.encode(*_enc_windows(u, y, t_idx, model.n_a, model.n_b))
    y_hat, _ = model.rollout_batch(x0, *roll_windows(u, y, t_idx, k_max + 1))
    return model.norm.denorm_y(y_hat)


def _long_record():
    return generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=10_000, seed=3))


# with 1024-row blocks and a tail shorter than a block merged into the block
# before it: 1000 starts are one block; 2100 two, the second of 1076 rows;
# 3584 three, the last of 1536 (a half-block tail, merged); 4200 four, the
# last of 1128; 8222 eight, the last of 1054; and 9950, the eval benchmark's
# shape, nine, the last of 1758
_KSTEP_CASES = [
    ("output-error", 1000),
    ("output-error", 2100),
    ("output-error", 3584),
    ("output-error", 4200),
    ("output-error", 8222),
    ("output-error", 9950),
    ("linear-innovation", 4200),
    ("general-innovation", 4200),
]
# two outputs: 2608 starts end in a 560-row tail, which a rule that merges
# only a tail under half a block would keep; h's (560, 2) output product
# then runs in OpenBLAS's small-matrix kernel, whose last bits differ
_KSTEP_CASES_TWO_OUTPUTS = [
    ("output-error", 2608),
    ("general-innovation", 2608),
]


def _kstep_case(record, noise, b, n_y=1):
    if n_y == 2:
        # the second output channel is the square of the first
        record = IoDataset(record.u, np.hstack([record.y, record.y**2]))
    ds = IoDataset(record.u[: b + 50], record.y[: b + 50])
    model = build_model(
        4, 1, n_y, 10, 10, noise=noise, seed=0, norm=fit_normalization(record)
    )
    rng = np.random.default_rng(1)
    if noise == "linear-innovation":
        model.noise.gain[:] = 0.1 * rng.normal(size=model.noise.gain.shape)
    if noise == "general-innovation":
        model.f_params.view("w0")[:, -n_y:] = 0.05 * rng.normal(size=(64, n_y))
    return model, ds


_ONE_THREAD_ROLLOUTS = """
import sys

import numpy as np
from test_model import (
    _KSTEP_CASES, _KSTEP_CASES_TWO_OUTPUTS, _kstep_case, _long_record, _one_rollout,
)

record = _long_record()
refs = {}
for n_y, cases in ((1, _KSTEP_CASES), (2, _KSTEP_CASES_TWO_OUTPUTS)):
    for noise, b in cases:
        model, ds = _kstep_case(record, noise, b, n_y)
        t_idx = np.arange(model.lag, len(ds) - 40)
        refs[f"{noise}-{b}-{n_y}"] = _one_rollout(model, ds, t_idx, 40)
np.savez(sys.argv[1], **refs)
"""


@pytest.fixture(scope="module")
def one_thread_rollouts(tmp_path_factory):
    # One unblocked rollout per case, run in a child process at one BLAS
    # thread, as bench/run.py runs eval. With two threads OpenBLAS splits
    # the rows of one 8222- or 9950-row product between them, and the
    # unblocked rollout's last bits change at the split; the blocked
    # predictions stay the same at one to four threads.
    import subnet

    tests_dir = os.path.dirname(os.path.abspath(__file__))
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(subnet.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src_dir, tests_dir]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    path = tmp_path_factory.mktemp("kstep") / "rollouts.npz"
    subprocess.run(
        [sys.executable, "-c", _ONE_THREAD_ROLLOUTS, str(path)],
        check=True, env=env, cwd=tests_dir, timeout=300,
    )
    with np.load(path) as refs:
        return {name: refs[name] for name in refs.files}


@pytest.fixture(scope="module")
def long_record():
    return _long_record()


@pytest.mark.parametrize("noise, b", _KSTEP_CASES)
def test_kstep_blocks_match_one_rollout(long_record, one_thread_rollouts, noise, b):
    model, ds = _kstep_case(long_record, noise, b)
    t_idx, preds = model.kstep_predictions(ds, 40)
    assert len(t_idx) == b
    assert np.array_equal(preds, one_thread_rollouts[f"{noise}-{b}-1"])


@pytest.mark.parametrize("noise, b", _KSTEP_CASES_TWO_OUTPUTS)
def test_kstep_blocks_match_one_rollout_two_outputs(
    long_record, one_thread_rollouts, noise, b
):
    model, ds = _kstep_case(long_record, noise, b, n_y=2)
    t_idx, preds = model.kstep_predictions(ds, 40)
    assert len(t_idx) == b
    assert np.array_equal(preds, one_thread_rollouts[f"{noise}-{b}-2"])


def test_kstep_numeric_error_names_first_step_over_blocks():
    # x = 1e200 * x + u with y = 0: a start t <= 2054 turns non-finite at step
    # 2057 - t, so the second block (1025 <= t <= 2048) first fails at step 9
    # and the third at step 3, from t = 2054
    model = linear_toy_model(a=1e200, exact_encoder=True)
    u = np.zeros((3200, 1))
    u[2054] = 1.0
    ds = IoDataset(u, np.zeros((3200, 1)))
    with pytest.raises(NumericError) as ref:
        _one_rollout(model, ds, np.arange(1, 3160), 40)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError) as err:
            model.kstep_predictions(ds, 40)
    assert (err.value.index, str(err.value)) == (3, str(ref.value))


def test_rollout_numeric_error_carries_step():
    # row 0 predicts 0, 1, 1e200, then x_3 = 1e400 overflows; row 1 stays at
    # 0. The overflow warns nothing, and the first non-finite step is named.
    model = linear_toy_model(a=1e200)
    u = np.ones((2, 6, 1))
    u[1] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError, match="non-finite prediction at step 3") as err:
            model.rollout_batch(np.zeros((2, 1)), u)
    assert err.value.index == 3


@pytest.mark.parametrize("noise", NOISE_STRUCTURES)
# at B=50, h runs over chunks of _CHUNK // 50 = 5 steps, so without a cache
# the states wrap round a ring of 5 and the 6 steps end in a 1-step chunk
@pytest.mark.parametrize("b", [1, 7, 50])
def test_rollout_in_place_buffers(noise, b):
    # the rollout writes h into y_hat, f into the next state's buffer and f's
    # input in place; against a loop of allocating mlp_forward calls, the
    # caller's x0 stays unwritten and every output and cache row is the same
    model = build_model(3, 1, 2, 2, 2, noise=noise, hidden_layers=2, hidden_width=5,
                        seed=1)
    rng = np.random.default_rng(2)
    if noise == "linear-innovation":
        model.noise.gain[:] = rng.normal(0, 0.3, size=(3, 2))
    if noise == "general-innovation":
        model.f_params.view("w0")[:, -2:] = rng.normal(0, 0.3, size=(5, 2))
    horizon = 6
    x0 = rng.normal(size=(b, 3))
    u = rng.normal(size=(b, horizon, 1))
    y = rng.normal(size=(b, horizon, 2))
    x0_before = x0.copy()
    cache = {}
    y_hat, e_hat = model.rollout_batch(x0, u, y, cache=cache)
    assert np.array_equal(x0, x0_before)
    y_plain, e_plain = model.rollout_batch(x0, u, y)
    assert np.array_equal(x0, x0_before)
    assert np.array_equal(y_hat, y_plain) and np.array_equal(e_hat, e_plain)
    free_y, free_e = model.rollout_batch(x0, u)
    assert np.array_equal(x0, x0_before) and not free_e.any()

    for teacher_forced, got in ((True, y_hat), (False, free_y)):
        x = x0_before
        for k in range(horizon):
            if teacher_forced:
                assert np.array_equal(cache["x"][k], x)
            yk = mlp_forward(model.h_spec, model.h_params, x)
            assert np.array_equal(got[:, k], yk)
            e = y[:, k] - yk if teacher_forced else np.zeros_like(yk)
            if teacher_forced:
                assert np.array_equal(e_hat[:, k], e)
            if k + 1 == horizon:
                break
            parts = [x, u[:, k]] + ([e] if noise == "general-innovation" else [])
            z = np.concatenate(parts, axis=1)
            if teacher_forced:
                assert np.array_equal(cache["f_in"][k], z)
            x = mlp_forward(model.f_spec, model.f_params, z)
            if noise == "linear-innovation":
                x = x + e @ model.noise.gain.T


@pytest.mark.parametrize("noise", NOISE_STRUCTURES)
@pytest.mark.parametrize("teacher_forced", [False, True])
def test_rollout_runs_h_per_chunk_unless_it_feeds_back(monkeypatch, noise, teacher_forced):
    # at B=1, h runs once per chunk of _CHUNK steps, unless a teacher-forced
    # innovation feeds its output into the next state: then once per step.
    # Either way it runs as soon as the chunk's last state exists, so the
    # call for the chunk that ends at step k follows exactly k calls of f
    model = build_model(2, 1, 1, 2, 2, noise=noise, hidden_layers=1, hidden_width=4,
                        seed=3)
    calls = []

    def counting_forward(*args, **kwargs):
        calls.append(args[0])
        return mlp_forward(*args, **kwargs)

    monkeypatch.setattr(subnet.model, "mlp_forward", counting_forward)
    horizon = 2 * _CHUNK + 3
    rng = np.random.default_rng(4)
    u = rng.normal(size=(1, horizon, 1))
    y = rng.normal(size=(1, horizon, 1))
    model.rollout_batch(np.zeros((1, 2)), u, y if teacher_forced else None)
    f_before, f_calls = [], 0
    for spec in calls:
        if spec is model.h_spec:
            f_before.append(f_calls)
        else:
            f_calls += 1
    assert f_calls == horizon - 1
    step = 1 if teacher_forced and noise != "output-error" else _CHUNK
    assert f_before == [min(lo + step, horizon) - 1 for lo in range(0, horizon, step)]
    assert len(f_before) == (horizon if step == 1 else 3)


def test_free_run_rollout_memory_is_the_predictions_and_one_chunk():
    # at B=1024 a chunk is one step: the states, f's input and the two
    # hidden buffers that f and h share take about 1.1 MiB beside the
    # 3.1 MiB of predictions. Keeping every state, h's own buffers and an
    # array of zero innovations took a 21.2 MiB peak
    model = build_model(4, 1, 1, 10, 10, seed=0)
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(1024, 4))
    u = rng.normal(size=(1024, 401, 1))
    tracemalloc.start()
    try:
        y_hat, e_hat = model.rollout_batch(x0, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not e_hat.flags.writeable and not e_hat.any()
    assert peak < y_hat.nbytes + 2 * 2**20


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


def test_checkpoint_infinite_norm_std(tmp_path):
    # save_model writes the inf as JSON's Infinity, and json reads it back
    model = linear_toy_model()
    model.norm.y_std = np.array([np.inf])
    path = tmp_path / "model.bin"
    save_model(model, path)
    with pytest.raises(CheckpointError, match="norm.y_std must be finite and positive"):
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
