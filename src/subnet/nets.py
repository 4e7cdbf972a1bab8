"""Feedforward networks with linear input/output layers and optional bypass.

A network is described by an immutable `MlpSpec`; its parameters live in a
single flat float64 vector (`MlpParams`) with a fixed per-layer layout:
weights then bias for each layer, then the bypass matrix when enabled.
`MlpParams` binds its block views to that vector once, at construction, so
the vector must be updated in place and never rebound.

Every network (f and h in the rollout, the encoder psi in front of it) is
differentiated by hand: `mlp_forward` computes each hidden activation in a
caller's buffer (and its output in another, when given), `mlp_act_grads`
turns the activations of many steps at once into their derivatives,
`mlp_backward` turns an output adjoint into the input adjoint and
completes every hidden layer's delta in place, and `mlp_block_grads` forms
the flat gradient, in layout order, with one matmul per weight block over
the deltas and inputs of all steps stacked into (T*B, .) rows. When the
output adjoint of every row is known up front, `mlp_backward_in_place`
does all three in one call, with each hidden layer's delta overwriting its
activations, so the deltas need no buffers of their own.

`mlp_forward` also takes leading axes, (T, B, in) for T steps at once.
Its matmuls on such a stack make one BLAS call per (B, in) step, the call
a 2-D (B, in) forward makes, so a stacked forward gives the per-step
outputs to the last bit; a (T*B, in) reshape into one product does not.

At B=1 these calls cost more in numpy's per-call overhead than in
arithmetic, so the per-step functions make as few calls as they can: the
biases are bound as (1, width) rows, since a broadcast of a (width,)
vector costs twice as much at B=1, and nothing is allocated that a caller
can provide. Each change of this kind moves an elementwise operation or
drops a copy, so the results stay the same to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
        # copy changes the matmul's summation order and so its last bits.
        # The biases are (1, width) views: at B=1, adding one to a (1, width)
        # row costs half as much as broadcasting a (width,) vector
        self.layers = [
            (self._views[f"w{i}"].T, self._views[f"b{i}"][None, :])
            for i in range(spec.hidden_layers + 1)
        ]
        self.bypass_t = self._views["bypass"].T if spec.bypass else None

    def view(self, key):
        return self._views[key]


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


def mlp_forward(spec: MlpSpec, params: MlpParams, x, acts=None, out=None):
    """Plain numpy forward pass; accepts (in,) or batched (..., B, in) input.

    Leading axes are stacks of batches, such as the steps of a rollout: a
    3-D (T, B, in) input gives the output of T separate (B, in) calls, to
    the last bit, since `np.matmul` makes one BLAS call per (B, in) slice.

    `acts`, when given, holds one (..., B, hidden_width) buffer per hidden
    layer, and each hidden layer is computed in place in its buffer: a
    caller that passes the same buffers at every step allocates no
    (B, hidden_width) temporaries, and one that keeps them has the
    activations for `mlp_backward`. `out`, when given, is a
    (..., B, out_dim) buffer, which may be a strided view, that receives
    the output; it must not overlap `x`. The returned array is then `out`
    itself.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.shape[-1] != spec.in_dim:
        raise ValueError(f"input width {x.shape[-1]} != in_dim {spec.in_dim}")
    act = _ACT_NP[spec.activation]
    *hidden, (w_out_t, b_out) = params.layers
    z = x
    for i, (w_t, b) in enumerate(hidden):
        z = z @ w_t if acts is None else np.matmul(z, w_t, out=acts[i])
        z += b
        act(z, out=z)
    z = z @ w_out_t if out is None else np.matmul(z, w_out_t, out=out)
    z += b_out
    if params.bypass_t is not None:
        z += x @ params.bypass_t
    return z[0] if single else z


def mlp_act_grads(spec: MlpSpec, acts, deltas):
    """Write the activation derivative of every hidden layer into `deltas`.

    `acts` are hidden activations that `mlp_forward` cached, of any shape
    (for a rollout, those of a chunk of steps stacked); `deltas` are buffers
    of the same shapes. This is the first half of each hidden layer's delta, which
    `mlp_backward` completes in place.
    """
    d_act = _ACT_GRAD[spec.activation]
    for a, d in zip(acts, deltas):
        d_act(a, d)


def mlp_backward(spec: MlpSpec, params: MlpParams, g, deltas, tmp):
    """Input adjoint of `mlp_forward` for the output adjoint g (B, out_dim).

    `deltas` hold one (B, hidden_width) buffer per hidden layer, which on
    entry holds that layer's activation derivative (`mlp_act_grads`) and on
    return its delta (the adjoint of its pre-activation). The output
    layer's delta is g itself. `tmp` is a scratch (N, hidden_width) buffer
    with N >= B; its contents are overwritten.
    """
    if spec.hidden_layers and len(tmp) != len(g):
        tmp = tmp[: len(g)]
    delta = g
    for i in reversed(range(spec.hidden_layers)):
        _back_through(delta, params.view(f"w{i + 1}"), tmp)
        # (delta @ w) * act' with the factors swapped: IEEE multiplication
        # commutes, so the bits are the same
        deltas[i] *= tmp
        delta = deltas[i]
    g_in = delta @ params.view("w0")
    if spec.bypass:
        g_in += g @ params.view("bypass")
    return g_in


def _back_through(delta, w, out):
    """delta @ w, the adjoint of a layer's input, into `out`."""
    if delta.shape[1] == 1:
        # an outer product (one output): the broadcast multiply gives the
        # matmul's numbers in half its time
        np.multiply(delta, w, out=out)
    else:
        np.matmul(delta, w, out=out)


def _layer_grads(grads, i, delta, a):
    """The weight and bias gradients of layer i from its delta and input."""
    np.matmul(delta.T, a, out=grads.view(f"w{i}"))
    np.sum(delta, axis=0, out=grads.view(f"b{i}"))


def mlp_block_grads(spec: MlpSpec, x, acts, deltas, g):
    """The flat gradient of every parameter block, in layout order.

    `x` (N, in_dim) are the inputs, `acts` and `deltas` the hidden
    activations and deltas (N, hidden_width) and `g` the output adjoint
    (N, out_dim) of N forward passes; their gradients are summed.
    """
    grads = MlpParams(spec, np.empty(spec.param_count))
    for i, (a, d) in enumerate(zip([x, *acts], [*deltas, g])):
        _layer_grads(grads, i, d, a)
    if spec.bypass:
        np.matmul(g.T, x, out=grads.view("bypass"))
    return grads.flat


def mlp_backward_in_place(spec: MlpSpec, params: MlpParams, x, acts, g, tmp):
    """(flat gradient, input adjoint) of N forward passes whose output
    adjoint g (N, out_dim) is known up front.

    `x` (N, in_dim) are the inputs and `acts` the (N, hidden_width)
    activations that `mlp_forward` cached; on return they hold the deltas.
    Layer by layer, last first, a weight block's gradient is one matmul
    over all N rows while the activations it reads are intact, and then the
    delta of the layer below overwrites them. Deltas and the input adjoint
    are formed in chunks of len(tmp) rows, the scratch (chunk, hidden_width)
    `tmp`: over the same chunks, `mlp_act_grads`, `mlp_backward` and
    `mlp_block_grads` give the same numbers to the last bit.
    """
    grads = MlpParams(spec, np.empty(spec.param_count))
    chunk = len(tmp)
    chunks = [slice(lo, lo + chunk) for lo in range(0, len(g), chunk)]
    d_act = _ACT_GRAD[spec.activation]
    delta = g
    for i in reversed(range(spec.hidden_layers)):
        _layer_grads(grads, i + 1, delta, acts[i])
        w = params.view(f"w{i + 1}")
        for c in chunks:
            a = acts[i][c]
            t = tmp[: len(a)]
            if spec.activation == "sigmoid":
                # (1 - a) * a needs a second buffer: 1 - a goes to the scratch
                # rows first, and the factors commute
                np.subtract(1.0, a, out=t)
                a *= t
            else:
                d_act(a, a)
            _back_through(delta[c], w, t)
            a *= t
        delta = acts[i]
    _layer_grads(grads, 0, delta, x)
    g_in = np.empty((len(g), spec.in_dim))
    for c in chunks:
        np.matmul(delta[c], params.view("w0"), out=g_in[c])
        if spec.bypass:
            g_in[c] += g[c] @ params.view("bypass")
    if spec.bypass:
        np.matmul(g.T, x, out=grads.view("bypass"))
    return grads.flat, g_in
