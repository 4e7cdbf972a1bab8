import numpy as np
import pytest

from subnet.autodiff import Tape, grad_check
from subnet.model import build_model
from subnet.nets import (
    MlpParams,
    MlpSpec,
    init_xavier,
    mlp_backward,
    mlp_block_grads,
    mlp_flat_grad,
    mlp_forward,
    mlp_graph,
    mlp_leaves,
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
    tape = Tape()
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
        tape = Tape()
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
    g_in = mlp_backward(spec, params, g, acts, deltas)
    blocks = mlp_block_grads(spec, x, acts, deltas, g)

    tape = Tape()
    leaves = mlp_leaves(tape, "p", params)
    x_node = tape.parameter("x", x)
    y = mlp_graph(tape, spec, leaves, x_node)
    ref = tape.backward(tape.mean(tape.mul(y, tape.constant(g * g.size))))
    assert np.allclose(g_in.ravel(), ref["x"], rtol=1e-12, atol=1e-14)
    assert np.allclose(np.concatenate([b.ravel() for b in blocks]),
                       mlp_flat_grad(spec, "p", ref), rtol=1e-12, atol=1e-14)


def test_forward_sees_in_place_flat_updates():
    # the block views are bound once, so the in-place writes of
    # set_param_blocks and adam_step must reach mlp_forward through them
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
    model.set_param_blocks(
        {name: rng.normal(size=flat.size) for name, flat in model.param_blocks().items()}
    )
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
