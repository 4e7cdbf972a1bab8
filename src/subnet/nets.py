"""Feedforward networks with linear input/output layers and optional bypass.

A network is described by an immutable `MlpSpec`; its parameters live in a
single flat float64 vector (`MlpParams`) with a fixed per-layer layout:
weights then bias for each layer, then the bypass matrix when enabled.
`MlpParams` binds its block views to that vector once, at construction, so
the vector must be updated in place and never rebound. The plain numpy
forward pass and the autodiff graph builder read the same block views, so
the two evaluate the identical function; on a tape each block is its own
parameter leaf, and `mlp_flat_grad` puts their gradients back together in
layout order.

The rollout is differentiated by hand instead: `mlp_forward` computes each
hidden activation in a caller's buffer, `mlp_backward` turns an output
adjoint into the input adjoint and stores every hidden layer's delta, and
`mlp_block_grads` forms each weight block's gradient with one matmul over
the deltas and inputs of all steps stacked into (T*B, .) rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import GraphError

ACTIVATIONS = ("tanh", "relu", "sigmoid")


def _sigmoid(v, out):
    # 1 / (1 + exp(-v)), evaluated in place in `out`
    np.negative(v, out=out)
    np.exp(out, out=out)
    out += 1.0
    np.divide(1.0, out, out=out)


# each activation writes its result into `out`
_ACT_NP = {
    "tanh": np.tanh,
    "relu": lambda v, out: np.maximum(v, 0.0, out=out),
    "sigmoid": _sigmoid,
}


def _tanh_grad(a, out):
    np.multiply(a, a, out=out)
    np.subtract(1.0, out, out=out)


def _relu_grad(a, out):
    np.greater(a, 0.0, out=out)


def _sigmoid_grad(a, out):
    np.subtract(1.0, a, out=out)
    out *= a


# derivative of each activation from its output a, written into `out`
_ACT_GRAD = {"tanh": _tanh_grad, "relu": _relu_grad, "sigmoid": _sigmoid_grad}


@dataclass(frozen=True)
class MlpSpec:
    in_dim: int
    out_dim: int
    hidden_layers: int = 2
    hidden_width: int = 64
    activation: str = "tanh"
    bypass: bool = True

    def __post_init__(self):
        if self.in_dim < 1 or self.out_dim < 1:
            raise ValueError("in_dim and out_dim must be >= 1")
        if self.hidden_layers < 0:
            raise ValueError("hidden_layers must be >= 0")
        if self.hidden_layers >= 1 and self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1 when hidden layers exist")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")

    def layer_dims(self):
        """Fan-in/fan-out pairs for all linear layers (hidden + output)."""
        dims = [self.in_dim] + [self.hidden_width] * self.hidden_layers + [self.out_dim]
        return list(zip(dims[:-1], dims[1:]))

    def layout(self):
        """[(key, offset, shape)] for every parameter block in the flat vector."""
        out = []
        offset = 0
        for i, (fan_in, fan_out) in enumerate(self.layer_dims()):
            out.append((f"w{i}", offset, (fan_out, fan_in)))
            offset += fan_out * fan_in
            out.append((f"b{i}", offset, (fan_out,)))
            offset += fan_out
        if self.bypass:
            out.append(("bypass", offset, (self.out_dim, self.in_dim)))
            offset += self.out_dim * self.in_dim
        return out

    @property
    def param_count(self):
        total = sum((fan_in + 1) * fan_out for fan_in, fan_out in self.layer_dims())
        if self.bypass:
            total += self.in_dim * self.out_dim
        return total

    def to_dict(self):
        return {
            "in_dim": self.in_dim,
            "out_dim": self.out_dim,
            "hidden_layers": self.hidden_layers,
            "hidden_width": self.hidden_width,
            "activation": self.activation,
            "bypass": self.bypass,
        }


class MlpParams:
    """Flat parameter storage for one `MlpSpec`; `flat` may be a shared view.

    The block views (`view(key)`, and the transposed `layers` and `bypass_t`
    that `mlp_forward` reads) are bound to `flat` once, here. Update `flat`
    in place (`flat[:] = ...`, `flat -= ...`) and never rebind the
    attribute: the views would keep reading the old buffer.
    """

    def __init__(self, spec: MlpSpec, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (spec.param_count,):
            raise ValueError(
                f"flat length {flat.shape} != spec parameter count ({spec.param_count},)"
            )
        self.spec = spec
        self.flat = flat
        self._views = {
            key: flat[off : off + int(np.prod(shape))].reshape(shape)
            for key, off, shape in spec.layout()
        }
        # (w.T, b) per layer; the transposes stay views, since a contiguous
        # copy changes the matmul's summation order and so its last bits
        self.layers = [
            (self._views[f"w{i}"].T, self._views[f"b{i}"])
            for i in range(spec.hidden_layers + 1)
        ]
        self.bypass_t = self._views["bypass"].T if spec.bypass else None

    def view(self, key):
        return self._views[key]

    def copy(self):
        return MlpParams(self.spec, self.flat.copy())


def xavier_bound(fan_in, fan_out):
    return np.sqrt(6.0 / (fan_in + fan_out))


def init_xavier(spec: MlpSpec, rng) -> MlpParams:
    """Glorot-uniform weights, zero biases; `rng` is a seed or Generator."""
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    flat = np.zeros(spec.param_count)
    params = MlpParams(spec, flat)
    for key, _off, shape in spec.layout():
        if key.startswith("w") or key == "bypass":
            fan_out, fan_in = shape
            bound = xavier_bound(fan_in, fan_out)
            params.view(key)[:] = rng.uniform(-bound, bound, size=shape)
        # biases stay zero
    return params


def mlp_forward(spec: MlpSpec, params: MlpParams, x, acts=None):
    """Plain numpy forward pass; accepts (in,) or batched (B, in) input.

    `acts`, when given, holds one (B, hidden_width) buffer per hidden layer,
    and each hidden layer is computed in place in its buffer: a caller that
    passes the same buffers at every step allocates no (B, hidden_width)
    temporaries, and one that keeps them has the activations for
    `mlp_backward`.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.in_dim:
        raise ValueError(f"input width {x.shape[1]} != in_dim {spec.in_dim}")
    act = _ACT_NP[spec.activation]
    *hidden, (w_out_t, b_out) = params.layers
    z = x
    for i, (w_t, b) in enumerate(hidden):
        z = z @ w_t if acts is None else np.matmul(z, w_t, out=acts[i])
        z += b
        act(z, out=z)
    z = z @ w_out_t
    z += b_out
    if params.bypass_t is not None:
        z += x @ params.bypass_t
    return z[0] if single else z


def mlp_backward(spec: MlpSpec, params: MlpParams, g, acts, deltas):
    """Input adjoint of `mlp_forward` for the output adjoint g (B, out_dim).

    `acts` are the hidden activations `mlp_forward` cached for this input;
    each hidden layer's delta (the adjoint of its pre-activation) is stored
    into `deltas`, one (B, hidden_width) buffer per hidden layer. The output
    layer's delta is g itself.
    """
    d_act = _ACT_GRAD[spec.activation]
    # every hidden-layer step writes into preallocated buffers: fresh
    # (B, width) temporaries cost more than the arithmetic at B=256
    tmp = np.empty_like(deltas[0]) if deltas else None
    delta = g
    for i in reversed(range(spec.hidden_layers)):
        w = params.view(f"w{i + 1}")
        if delta.shape[1] == 1:
            # an outer product (one output): the broadcast multiply gives
            # the matmul's numbers in half its time
            np.multiply(delta, w, out=deltas[i])
        else:
            np.matmul(delta, w, out=deltas[i])
        d_act(acts[i], tmp)
        deltas[i] *= tmp
        delta = deltas[i]
    g_in = delta @ params.view("w0")
    if spec.bypass:
        g_in += g @ params.view("bypass")
    return g_in


def mlp_block_grads(spec: MlpSpec, x, acts, deltas, g):
    """Gradient of every parameter block, in layout order, from stacked rows.

    `x` (N, in_dim) are the inputs, `acts` and `deltas` the hidden
    activations and deltas (N, hidden_width) and `g` the output adjoint
    (N, out_dim) of N forward passes; their gradients are summed.
    """
    grads = []
    for a, d in zip([x, *acts], [*deltas, g]):
        grads += [d.T @ a, d.sum(axis=0)]
    if spec.bypass:
        grads.append(g.T @ x)
    return grads


def mlp_leaves(tape, name, params: MlpParams):
    """Register every block of `params` on `tape` as parameter "<name>.<key>".

    The leaves are views of `params.flat`, so nothing is copied. Returns
    {key: node}.
    """
    return {
        key: tape.parameter(f"{name}.{key}", params.view(key))
        for key, _off, _shape in params.spec.layout()
    }


def mlp_flat_grad(spec: MlpSpec, name, grads):
    """One flat gradient for the network registered as `name`, in layout order."""
    return np.concatenate([grads[f"{name}.{key}"] for key, _off, _shape in spec.layout()])


def mlp_graph(tape, spec: MlpSpec, leaves, x_node):
    """Build the forward pass on `tape` from the block nodes of `mlp_leaves`."""
    if x_node.value.ndim != 2 or x_node.value.shape[1] != spec.in_dim:
        raise GraphError(
            f"mlp_graph expects (B, {spec.in_dim}) input, got {x_node.value.shape}"
        )
    act = getattr(tape, spec.activation)
    n_layers = spec.hidden_layers + 1
    z = x_node
    for i in range(n_layers):
        z = tape.affine(z, leaves[f"w{i}"], leaves[f"b{i}"])
        if i < n_layers - 1:
            z = act(z)
    if spec.bypass:
        zero = tape.constant(np.zeros(spec.out_dim))
        z = tape.add(z, tape.affine(x_node, leaves["bypass"], zero))
    return z
