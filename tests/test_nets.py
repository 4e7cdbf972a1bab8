import numpy as np
import pytest
from reference_tape import ReferenceTape, mlp_flat_grad, mlp_graph, mlp_leaves

from subnet.autodiff import grad_check
from subnet.model import build_model
from subnet.nets import (
    MlpParams,
    MlpSpec,
    init_xavier,
    mlp_act_grads,
    mlp_backward,
    mlp_backward_in_place,
    mlp_block_grads,
    mlp_forward,
    xavier_bound,
)
from subnet.optim import AdamState, adam_step


def test_xavier_bound_value():
    assert xavier_bound(3, 3) == 1.0


def test_param_count_matches_layout():
    for spec in (
        MlpSpec(3, 2),
        MlpSpec(5, 1, hidden_layers=0, bypass=False),
        MlpSpec(4, 4, hidden_layers=3, hidden_width=7, bypass=True),
    ):
        total = sum(int(np.prod(shape)) for _k, _off, shape in spec.layout())
        assert spec.param_count == total
        analytic = sum((fi + 1) * fo for fi, fo in spec.layer_dims())
        if spec.bypass:
            analytic += spec.in_dim * spec.out_dim
        assert spec.param_count == analytic


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        MlpSpec(0, 1)
    with pytest.raises(ValueError):
        MlpSpec(1, 1, hidden_layers=-1)
    with pytest.raises(ValueError):
        MlpSpec(1, 1, hidden_layers=1, hidden_width=0)
    with pytest.raises(ValueError):
        MlpSpec(1, 1, activation="softplus")


def test_zero_hidden_identity():
    spec = MlpSpec(3, 3, hidden_layers=0, bypass=False)
    params = MlpParams(spec, np.zeros(spec.param_count))
    params.view("w0")[:] = np.eye(3)
    x = np.random.default_rng(0).normal(size=(5, 3))
    assert np.allclose(mlp_forward(spec, params, x), x)


def test_constant_output_bias():
    spec = MlpSpec(1, 1, hidden_layers=1, hidden_width=1, bypass=False)
    params = MlpParams(spec, np.zeros(spec.param_count))
    params.view("b1")[:] = 0.3
    for x in ([0.0], [5.0], [-2.0]):
        assert mlp_forward(spec, params, np.array(x)) == pytest.approx(0.3)


def test_zero_weights_output_equals_bias():
    spec = MlpSpec(4, 2, hidden_layers=2, hidden_width=8, activation="tanh", bypass=True)
    params = MlpParams(spec, np.zeros(spec.param_count))
    params.view("b2")[:] = [0.7, -0.2]
    x = np.random.default_rng(1).normal(size=(10, 4))
    out = mlp_forward(spec, params, x)
    assert np.allclose(out, np.array([0.7, -0.2]))


def test_duplicate_implementation_oracle():
    # straight-line reimplementation of the 2x2 tanh layer recurrence
    spec = MlpSpec(2, 1, hidden_layers=2, hidden_width=2, activation="tanh", bypass=True)
    params = init_xavier(spec, 7)
    x = np.array([1.0, -1.0])

    z = np.tanh(params.view("w0") @ x + params.view("b0"))
    z = np.tanh(params.view("w1") @ z + params.view("b1"))
    z = params.view("w2") @ z + params.view("b2")
    z = z + params.view("bypass") @ x

    assert np.allclose(mlp_forward(spec, params, x), z, rtol=0, atol=1e-15)


def test_init_xavier_bounds_and_zero_biases():
    spec = MlpSpec(6, 3, hidden_layers=2, hidden_width=10)
    params = init_xavier(spec, 0)
    for key, _off, shape in spec.layout():
        block = params.view(key)
        if key.startswith("b") and key != "bypass":
            assert np.all(block == 0.0)
        else:
            fan_out, fan_in = shape
            bound = xavier_bound(fan_in, fan_out)
            assert np.all(np.abs(block) <= bound)
            assert np.any(block != 0.0)


def test_init_xavier_deterministic():
    spec = MlpSpec(4, 2)
    a = init_xavier(spec, 11).flat
    b = init_xavier(spec, 11).flat
    assert np.array_equal(a, b)
    assert not np.array_equal(a, init_xavier(spec, 12).flat)


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("bypass", [True, False])
def test_graph_matches_numpy_forward(activation, bypass):
    spec = MlpSpec(3, 2, hidden_layers=2, hidden_width=5, activation=activation, bypass=bypass)
    params = init_xavier(spec, 5)
    x = np.random.default_rng(6).normal(size=(4, 3))
    tape = ReferenceTape()
    leaves = mlp_leaves(tape, "p", params)
    assert all(np.shares_memory(leaves[key].value, params.flat) for key, _, _ in spec.layout())
    out = mlp_graph(tape, spec, leaves, tape.constant(x))
    assert np.allclose(out.value, mlp_forward(spec, params, x), rtol=0, atol=1e-14)


@pytest.mark.parametrize("bypass", [True, False])
def test_flat_gradient_matches_finite_differences(bypass):
    # per-block leaf gradients reassembled in layout order give d loss / d flat
    spec = MlpSpec(3, 2, hidden_layers=2, hidden_width=4, bypass=bypass)
    x = np.random.default_rng(9).normal(size=(5, 3))

    def fn(p):
        tape = ReferenceTape()
        leaves = mlp_leaves(tape, "net", MlpParams(spec, p["net"]))
        root = tape.mean(tape.square(mlp_graph(tape, spec, leaves, tape.constant(x))))
        return float(root.value), {"net": mlp_flat_grad(spec, "net", tape.backward(root))}

    report = grad_check(fn, {"net": init_xavier(spec, 4).flat})
    assert report.passed, report


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("hidden_layers", [0, 2])
@pytest.mark.parametrize(
    "bypass, out_dim",
    [(True, 2), (False, 2), (True, 1), (False, 1)],
    ids=["True", "False", "True-out1", "False-out1"],
)
def test_backward_matches_graph(activation, hidden_layers, bypass, out_dim):
    # the gradient of sum(G * mlp(x)) over six rows, from the cached forward
    # and the hand-written backward, against the tape of the same function
    spec = MlpSpec(3, out_dim, hidden_layers=hidden_layers, hidden_width=5,
                   activation=activation, bypass=bypass)
    params = init_xavier(spec, 3)
    params.flat[:] += np.random.default_rng(4).normal(0, 0.2, size=spec.param_count)
    rng = np.random.default_rng(5)
    x = rng.normal(size=(6, 3))
    g = rng.normal(size=(6, out_dim))
    acts = [np.empty((6, 5)) for _ in range(hidden_layers)]
    out = mlp_forward(spec, params, x, acts)
    assert np.array_equal(out, mlp_forward(spec, params, x))
    deltas = [np.empty((6, 5)) for _ in range(hidden_layers)]
    mlp_act_grads(spec, acts, deltas)
    g_in = mlp_backward(spec, params, g, deltas, np.empty((8, 5)))
    flat_grad = mlp_block_grads(spec, x, acts, deltas, g)

    tape = ReferenceTape()
    leaves = mlp_leaves(tape, "p", params)
    x_node = tape.parameter("x", x)
    y = mlp_graph(tape, spec, leaves, x_node)
    ref = tape.backward(tape.mean(tape.mul(y, tape.constant(g * g.size))))
    assert np.allclose(g_in.ravel(), ref["x"], rtol=1e-12, atol=1e-14)
    assert np.allclose(flat_grad, mlp_flat_grad(spec, "p", ref), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("hidden_layers", [0, 1, 2])
@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("out_dim", [1, 2])
def test_backward_in_place_matches_separate_deltas(activation, hidden_layers, bypass,
                                                   out_dim):
    # 23 rows in chunks of 8, the last one partial: the in-place backward
    # against mlp_act_grads and mlp_backward over the same chunks and
    # mlp_block_grads over all rows, bit for bit
    spec = MlpSpec(3, out_dim, hidden_layers=hidden_layers, hidden_width=5,
                   activation=activation, bypass=bypass)
    params = init_xavier(spec, 3)
    params.flat[:] += np.random.default_rng(4).normal(0, 0.2, size=spec.param_count)
    rng = np.random.default_rng(5)
    rows, chunk = 23, 8
    x = rng.normal(size=(rows, 3))
    g = rng.normal(size=(rows, out_dim))
    acts = [np.empty((rows, 5)) for _ in range(hidden_layers)]
    mlp_forward(spec, params, x, acts)
    deltas = [np.empty((rows, 5)) for _ in range(hidden_layers)]
    g_in = np.empty((rows, 3))
    for lo in range(0, rows, chunk):
        c = slice(lo, lo + chunk)
        mlp_act_grads(spec, [a[c] for a in acts], [d[c] for d in deltas])
        g_in[c] = mlp_backward(spec, params, g[c], [d[c] for d in deltas],
                               np.empty((chunk, 5)))
    flat_grad = mlp_block_grads(spec, x, acts, deltas, g)

    got_flat, got_g_in = mlp_backward_in_place(spec, params, x, acts, g,
                                               np.empty((chunk, 5)))
    assert np.array_equal(got_flat, flat_grad)
    assert np.array_equal(got_g_in, g_in)
    assert all(np.array_equal(a, d) for a, d in zip(acts, deltas))


@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("out_dim", [1, 2])
@pytest.mark.parametrize("b", [1, 7])
def test_forward_into_strided_out_matches_allocating(bypass, out_dim, b):
    # the output written into step 1 of a (B, T, out) buffer, as the rollout
    # writes y_hat[:, k], is the allocating call's to the last bit
    spec = MlpSpec(3, out_dim, hidden_layers=2, hidden_width=5, bypass=bypass)
    params = init_xavier(spec, 2)
    x = np.random.default_rng(3).normal(size=(b, 3))
    y_hat = np.full((b, 4, out_dim), np.nan)
    got = mlp_forward(spec, params, x, [np.empty((b, 5)) for _ in range(2)], y_hat[:, 1])
    assert np.shares_memory(got, y_hat)
    assert np.array_equal(y_hat[:, 1], mlp_forward(spec, params, x))
    assert np.isnan(y_hat[:, [0, 2, 3]]).all()


@pytest.mark.parametrize("activation", ["tanh", "relu", "sigmoid"])
@pytest.mark.parametrize("hidden_layers", [0, 2])
@pytest.mark.parametrize("bypass", [True, False])
@pytest.mark.parametrize("b", [1, 7])
def test_forward_on_stacked_steps_matches_per_step(activation, hidden_layers, bypass, b):
    # a (T, B, in) stack, as the rollout runs h after its state loop, gives
    # each (B, in) call's output to the last bit, written through a strided
    # (T, B, out) view of a (B, T, out) buffer as the rollout writes y_hat
    spec = MlpSpec(3, 2, hidden_layers=hidden_layers, hidden_width=5,
                   activation=activation, bypass=bypass)
    params = init_xavier(spec, 4)
    steps = 6
    x = np.random.default_rng(5).normal(size=(steps, b, 3))
    y_hat = np.full((b, steps + 2, 2), np.nan)
    acts = [np.empty((steps, b, 5)) for _ in range(hidden_layers)]
    got = mlp_forward(spec, params, x, acts, y_hat.transpose(1, 0, 2)[1:-1])
    assert np.shares_memory(got, y_hat) and got.shape == (steps, b, 2)
    for k in range(steps):
        step_acts = [np.empty((b, 5)) for _ in range(hidden_layers)]
        assert np.array_equal(y_hat[:, k + 1], mlp_forward(spec, params, x[k], step_acts))
        assert all(np.array_equal(a[k], s) for a, s in zip(acts, step_acts))
    assert np.isnan(y_hat[:, [0, -1]]).all()
    assert np.array_equal(mlp_forward(spec, params, x), got)


def test_forward_sees_in_place_flat_updates():
    # the block views are bound once, so in-place writes through
    # param_blocks() and adam_step must reach mlp_forward through them
    model = build_model(2, 1, 1, 2, 2, hidden_layers=2, hidden_width=5, seed=0)
    rng = np.random.default_rng(1)
    nets = [model.f_params, model.h_params, model.psi_params]
    inputs = [rng.normal(size=(4, p.spec.in_dim)) for p in nets]

    def outputs():
        return [mlp_forward(p.spec, p, x) for p, x in zip(nets, inputs)]

    def matches_fresh_params(got):
        fresh = [
            mlp_forward(p.spec, MlpParams(p.spec, p.flat.copy()), x)
            for p, x in zip(nets, inputs)
        ]
        return all(np.array_equal(a, b) for a, b in zip(got, fresh))

    before = outputs()
    for flat in model.param_blocks().values():
        flat[:] = rng.normal(size=flat.size)
    after_set = outputs()
    assert matches_fresh_params(after_set)
    blocks = model.param_blocks()
    adam_step(AdamState(lr=0.1), blocks, {name: np.ones_like(f) for name, f in blocks.items()})
    after_adam = outputs()
    assert matches_fresh_params(after_adam)
    for old, new in ((before, after_set), (after_set, after_adam)):
        assert not any(np.array_equal(a, b) for a, b in zip(old, new))


def test_forward_input_width_check():
    spec = MlpSpec(3, 1)
    params = init_xavier(spec, 0)
    with pytest.raises(ValueError):
        mlp_forward(spec, params, np.ones((2, 4)))


def test_flat_length_check():
    spec = MlpSpec(3, 1)
    with pytest.raises(ValueError):
        MlpParams(spec, np.zeros(spec.param_count + 1))


def test_lipschitz_on_bounded_box():
    # finite-difference slopes stay under the product-of-norms bound
    spec = MlpSpec(3, 2, hidden_layers=2, hidden_width=8, activation="tanh", bypass=True)
    params = init_xavier(spec, 3)
    bound = 1.0
    for i in range(spec.hidden_layers + 1):
        bound *= np.linalg.norm(params.view(f"w{i}"), 2)
    bound += np.linalg.norm(params.view("bypass"), 2)
    rng = np.random.default_rng(8)
    a = rng.uniform(-2, 2, size=(200, 3))
    b = rng.uniform(-2, 2, size=(200, 3))
    fa = mlp_forward(spec, params, a)
    fb = mlp_forward(spec, params, b)
    slopes = np.linalg.norm(fa - fb, axis=1) / np.linalg.norm(a - b, axis=1)
    assert np.all(np.isfinite(slopes))
    assert np.max(slopes) <= bound + 1e-9
