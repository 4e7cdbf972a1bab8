import numpy as np
import pytest
from reference_tape import ReferenceTape

from subnet.autodiff import GraphError, NumericError, grad_check


def finite_diff(fn, params, h=1e-6):
    """Central-difference gradients of a scalar fn({name: vec}) -> float."""
    out = {}
    for name, vec in params.items():
        g = np.empty(vec.size)
        for i in range(vec.size):
            pert = {k: v.copy() for k, v in params.items()}
            pert[name][i] = vec[i] + h
            fp = fn(pert)
            pert[name][i] = vec[i] - h
            fm = fn(pert)
            g[i] = (fp - fm) / (2 * h)
        out[name] = g
    return out


def test_mean_value():
    tape = ReferenceTape()
    assert tape.mean(tape.constant([1.0, 2.0, 3.0])).value == 2.0


def test_unused_parameter_gets_zero_gradient():
    tape = ReferenceTape()
    tape.parameter("unused", np.ones(3))
    w = tape.parameter("w", np.array([2.0]))
    root = tape.mean(tape.square(w))
    grads = tape.backward(root)
    assert np.array_equal(grads["unused"], np.zeros(3))
    assert grads["w"][0] == 4.0


def test_tanh_derivative_oracle():
    # d/dw tanh(w*x) at w=0.5, x=1; frozen value and central-difference oracle
    def build(w):
        tape = ReferenceTape()
        wn = tape.parameter("w", w)
        root = tape.mean(tape.tanh(tape.mul(wn, tape.constant([1.0]))))
        return tape, root

    tape, root = build(np.array([0.5]))
    grad = tape.backward(root)["w"][0]
    assert grad == pytest.approx(0.78645, abs=5e-6)
    h = 1e-6
    fd = (np.tanh(0.5 + h) - np.tanh(0.5 - h)) / (2 * h)
    assert grad == pytest.approx(fd, rel=1e-9)


def test_backward_requires_scalar_root():
    tape = ReferenceTape()
    w = tape.parameter("w", np.ones(3))
    with pytest.raises(GraphError):
        tape.backward(tape.square(w))


def test_duplicate_parameter_name_rejected():
    tape = ReferenceTape()
    tape.parameter("w", np.ones(2))
    with pytest.raises(GraphError):
        tape.parameter("w", np.ones(2))


def test_affine_shape_errors():
    tape = ReferenceTape()
    x = tape.constant(np.ones((4, 3)))
    w = tape.parameter("w", np.ones((2, 5)))
    b = tape.parameter("b", np.ones(2))
    with pytest.raises(GraphError):
        tape.affine(x, w, b)


def test_concat_shape_error():
    tape = ReferenceTape()
    a = tape.constant(np.ones((2, 3)))
    b = tape.constant(np.ones((3, 3)))
    with pytest.raises(GraphError):
        tape.concat([a, b], axis=1)


def test_sum_rule():
    # gradient of f+g equals grad f plus grad g for the shared parameter
    w0 = np.array([0.3, -1.2])

    def parts(build_root):
        tape = ReferenceTape()
        w = tape.parameter("w", w0.copy())
        return tape.backward(build_root(tape, w))["w"]

    gf = parts(lambda t, w: t.mean(t.square(w)))
    gg = parts(lambda t, w: t.mean(t.tanh(w)))
    gsum = parts(lambda t, w: t.add(t.mean(t.square(w)), t.mean(t.tanh(w))))
    assert np.allclose(gsum, gf + gg, rtol=0, atol=1e-15)


def test_deterministic_gradients():
    rng = np.random.default_rng(3)
    w0 = rng.normal(size=6)
    x0 = rng.normal(size=(4, 3))

    def run():
        tape = ReferenceTape()
        wm = tape.parameter("w", w0.copy().reshape(2, 3))
        b = tape.constant(np.zeros(2))
        root = tape.mean(tape.square(tape.tanh(tape.affine(tape.constant(x0), wm, b))))
        return tape.backward(root)["w"]

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


def test_broadcasting_gradients():
    # (B, n) * (n,) with gradient reduced back onto the vector
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 3))
    w0 = rng.normal(size=3)

    def fn(params):
        tape = ReferenceTape()
        w = tape.parameter("w", params["w"])
        root = tape.mean(tape.square(tape.mul(tape.constant(x), w)))
        return float(root.value), tape.backward(root)

    report = grad_check(fn, {"w": w0})
    assert report.passed, report


def test_gather_accumulates_duplicates():
    tape = ReferenceTape()
    bank = tape.parameter("bank", np.arange(6.0).reshape(3, 2))
    picked = tape.gather(bank, [0, 0, 2])
    root = tape.mean(picked)
    grads = tape.backward(root)["bank"].reshape(3, 2)
    assert np.allclose(grads[0], 2 / 6)
    assert np.allclose(grads[1], 0.0)
    assert np.allclose(grads[2], 1 / 6)


def test_grad_check_linear_is_exact():
    c = np.array([1.0, -2.0, 3.0])

    def fn(params):
        tape = ReferenceTape()
        w = tape.parameter("w", params["w"])
        root = tape.mean(tape.mul(w, tape.constant(c)))
        return float(root.value), tape.backward(root)

    report = grad_check(fn, {"w": np.array([0.4, 0.5, -0.1])}, h=1e-3)
    assert report.max_rel_error <= 1e-10


def test_grad_check_mlp():
    # 2-layer tanh MLP with scalar output
    rng = np.random.default_rng(1)
    sizes = {"w0": (4, 3), "w1": (4, 4), "w2": (1, 4)}
    params = {k: rng.normal(0, 0.5, size=np.prod(s)) for k, s in sizes.items()}
    x = rng.normal(size=(2, 3))

    def fn(p):
        tape = ReferenceTape()
        nodes = {k: tape.parameter(k, p[k].reshape(s)) for k, s in sizes.items()}
        z = tape.constant(x)
        for k in ("w0", "w1"):
            b = tape.constant(np.zeros(nodes[k].value.shape[0]))
            z = tape.tanh(tape.affine(z, nodes[k], b))
        root = tape.mean(tape.affine(z, nodes["w2"], tape.constant(np.zeros(1))))
        return float(root.value), tape.backward(root)

    report = grad_check(fn, params, h=1e-5, tol=1e-4)
    assert report.passed, report


def test_grad_check_flags_relu_kink():
    def fn(params):
        tape = ReferenceTape()
        w = tape.parameter("w", params["w"])
        root = tape.mean(tape.relu(w))
        return float(root.value), tape.backward(root)

    report = grad_check(fn, {"w": np.array([0.0, 1.0])}, h=1e-5)
    assert ("w", 0) in report.non_comparable
    assert report.passed  # the kink component is excluded


def test_grad_check_rejects_bad_h():
    with pytest.raises(ValueError):
        grad_check(lambda p: (0.0, {}), {}, h=0.0)


def test_grad_check_nonfinite_raises():
    def fn(params):
        w = params["w"][0]
        val = np.inf if w > 1.0 else w**2
        return val, {"w": np.array([2 * w])}

    with pytest.raises(NumericError):
        grad_check(fn, {"w": np.array([1.0])}, h=1e-2)


def _random_graph_case(rng):
    """Random op pipeline ending in a scalar mean; smooth ops only."""
    n_in = rng.integers(2, 5)
    batch = rng.integers(1, 4)
    x = rng.normal(size=(batch, n_in))
    shapes = {
        "w": (rng.integers(1, 4), n_in),
        "v": (n_in,),
    }
    params = {k: rng.normal(0, 0.6, size=int(np.prod(s))) for k, s in shapes.items()}
    # at most one square: repeated squaring makes the FD oracle unreliable
    ops = list(rng.choice(["tanh", "sigmoid", "square"], size=3, replace=False))

    def fn(p):
        tape = ReferenceTape()
        w = tape.parameter("w", p["w"].reshape(shapes["w"]))
        v = tape.parameter("v", p["v"])
        z = tape.mul(tape.constant(x), v)  # broadcast over batch
        z = tape.affine(z, w, tape.constant(np.zeros(shapes["w"][0])))
        for op in ops:
            z = getattr(tape, op)(z)
        z = tape.concat([z, tape.square(z)], axis=1)
        root = tape.mean(z)
        return float(root.value), tape.backward(root)

    return fn, params


def test_random_graphs_match_finite_differences():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        fn, params = _random_graph_case(rng)
        report = grad_check(fn, params, h=1e-5, tol=1e-4)
        assert report.passed, report
        worst = max(worst, report.max_rel_error)
    assert worst < 1e-4

