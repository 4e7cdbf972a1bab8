"""A tape with the general op vocabulary: the tests' independent reference.

The package derives every gradient by hand, and its `Tape` records only
parameter leaves and `custom` nodes. The tests check those hand gradients
against graphs built here from elementary ops. Each op of `ReferenceTape`
is a `custom` node with the op's textbook derivative, so the reference
runs through the package's one backward loop; `test_autodiff.py` checks
the ops against finite differences. `mlp_graph` builds a network's
forward pass from them, one parameter leaf per block (`mlp_leaves`), and
`mlp_flat_grad` puts the block gradients back together in layout order.
"""

import numpy as np

from subnet.autodiff import GraphError, Tape


def _unbroadcast(grad, shape):
    """Reduce `grad` back to `shape` after numpy broadcasting."""
    if grad.shape == tuple(shape):
        return grad
    # sum out prepended axes
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class ReferenceTape(Tape):
    """`Tape` plus constants and elementwise, affine and reduction ops."""

    def constant(self, value):
        # a leaf that backward never reads a gradient from
        return self._push("constant", (), np.asarray(value, dtype=np.float64))

    def _binary(self, op, fn, a, b):
        try:
            value = fn(a.value, b.value)
        except ValueError as exc:
            raise GraphError(
                f"{op}: incompatible shapes {a.value.shape} vs {b.value.shape}"
            ) from exc
        return value

    def add(self, a, b):
        value = self._binary("add", np.add, a, b)
        return self.custom((a, b), value, lambda g: (
            _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)))

    def sub(self, a, b):
        value = self._binary("sub", np.subtract, a, b)
        return self.custom((a, b), value, lambda g: (
            _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)))

    def mul(self, a, b):
        value = self._binary("mul", np.multiply, a, b)
        return self.custom((a, b), value, lambda g: (
            _unbroadcast(g * b.value, a.value.shape),
            _unbroadcast(g * a.value, b.value.shape)))

    def scale(self, a, c):
        """Multiply by a python float (treated as a constant)."""
        c = float(c)
        return self.custom((a,), a.value * c, lambda g: (g * c,))

    def affine(self, x, w, b):
        """x @ w.T + b with x (B, n_in), w (n_out, n_in), b (n_out,)."""
        if x.value.ndim != 2 or w.value.ndim != 2:
            raise GraphError(
                f"affine expects 2-D x and w, got {x.value.shape} and {w.value.shape}"
            )
        if x.value.shape[1] != w.value.shape[1]:
            raise GraphError(
                f"affine: x cols {x.value.shape[1]} != w cols {w.value.shape[1]}"
            )
        if b.value.shape != (w.value.shape[0],):
            raise GraphError(f"affine: bias shape {b.value.shape} != ({w.value.shape[0]},)")
        return self.custom((x, w, b), x.value @ w.value.T + b.value, lambda g: (
            g @ w.value, g.T @ x.value, g.sum(axis=0)))

    def tanh(self, a):
        v = np.tanh(a.value)
        return self.custom((a,), v, lambda g: (g * (1.0 - v * v),))

    def relu(self, a):
        # subgradient at 0 taken as 0
        return self.custom((a,), np.maximum(a.value, 0.0), lambda g: (g * (a.value > 0.0),))

    def sigmoid(self, a):
        v = 1.0 / (1.0 + np.exp(-a.value))
        return self.custom((a,), v, lambda g: (g * v * (1.0 - v),))

    def square(self, a):
        return self.custom((a,), a.value * a.value, lambda g: (g * 2.0 * a.value,))

    def mean(self, a):
        return self.custom((a,), np.asarray(a.value.mean()), lambda g: (
            np.full(a.value.shape, float(g) / a.value.size),))

    def concat(self, parts, axis=-1):
        parts = tuple(parts)
        try:
            value = np.concatenate([p.value for p in parts], axis=axis)
        except ValueError as exc:
            raise GraphError(
                f"concat: incompatible shapes {[p.value.shape for p in parts]}"
            ) from exc

        def backward(g):
            grads = []
            pos = 0
            for q in parts:
                width = q.value.shape[axis % q.value.ndim]
                idx = [np.s_[:]] * g.ndim
                idx[axis % g.ndim] = np.s_[pos : pos + width]
                grads.append(g[tuple(idx)])
                pos += width
            return grads

        return self.custom(parts, value, backward)

    def gather(self, a, rows):
        """Select rows of a 2-D node by integer index (duplicates allowed)."""
        if a.value.ndim != 2:
            raise GraphError(f"gather expects a 2-D node, got {a.value.shape}")
        rows = np.asarray(rows, dtype=np.intp)

        def backward(g):
            gp = np.zeros(a.value.shape)
            np.add.at(gp, rows, g)
            return (gp,)

        return self.custom((a,), a.value[rows], backward)


def mlp_leaves(tape, name, params):
    """Register every block of `params` on `tape` as parameter "<name>.<key>".

    The leaves are views of `params.flat`, so nothing is copied. Returns
    {key: node}.
    """
    return {
        key: tape.parameter(f"{name}.{key}", params.view(key))
        for key, _off, _shape in params.spec.layout()
    }


def mlp_flat_grad(spec, name, grads):
    """One flat gradient for the network registered as `name`, in layout order."""
    return np.concatenate([grads[f"{name}.{key}"] for key, _off, _shape in spec.layout()])


def mlp_graph(tape, spec, leaves, x_node):
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
