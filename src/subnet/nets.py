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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import GraphError

ACTIVATIONS = ("tanh", "relu", "sigmoid")

_ACT_NP = {
    "tanh": np.tanh,
    "relu": lambda v: np.maximum(v, 0.0),
    "sigmoid": lambda v: 1.0 / (1.0 + np.exp(-v)),
}


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


def mlp_forward(spec: MlpSpec, params: MlpParams, x):
    """Plain numpy forward pass; accepts (in,) or batched (B, in) input."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[1] != spec.in_dim:
        raise ValueError(f"input width {x.shape[1]} != in_dim {spec.in_dim}")
    act = _ACT_NP[spec.activation]
    *hidden, (w_out_t, b_out) = params.layers
    z = x
    for w_t, b in hidden:
        z = z @ w_t
        z += b
        z = act(z)
    z = z @ w_out_t
    z += b_out
    if params.bypass_t is not None:
        z += x @ params.bypass_t
    return z[0] if single else z


def mlp_leaves(tape, name, params: MlpParams):
    """Register every block of `params` on `tape` as parameter "<name>.<key>".

    The leaves are views of `params.flat`, so nothing is copied. Returns
    {key: node}, with the bypass layer's zero bias as one extra constant.
    """
    leaves = {
        key: tape.parameter(f"{name}.{key}", params.view(key))
        for key, _off, _shape in params.spec.layout()
    }
    if params.spec.bypass:
        leaves["bypass_bias"] = tape.constant(np.zeros(params.spec.out_dim))
    return leaves


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
        z = tape.add(z, tape.affine(x_node, leaves["bypass"], leaves["bypass_bias"]))
    return z
