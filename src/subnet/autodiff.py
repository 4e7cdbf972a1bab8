"""Reverse-mode automatic differentiation on a define-by-run tape.

Nodes hold float64 numpy buffers (scalars, vectors or batched 2-D arrays).
Values are computed eagerly when a node is created; `backward` walks the
tape in exact reverse creation order, which is a valid reverse topological
order by construction, so gradient accumulation over fan-out is
deterministic.

Tapes are single-use: build the graph, call backward, throw the tape away.
Parameters are leaves registered by name over caller-owned arrays (used
as-is, so a view of a larger buffer stays a view); `backward` returns one
flat gradient per name.

`custom` records a whole computation whose gradient the caller derives by
hand as one node: the losses record a complete rollout this way, so a
T-step rollout costs one node instead of a per-step graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class GraphError(ValueError):
    """Raised at graph-construction time for shape/contract violations."""


class NumericError(RuntimeError):
    """Raised when a non-finite value is encountered; carries a location."""

    def __init__(self, msg, index=None):
        super().__init__(msg)
        self.index = index


def _as_f64(x):
    return np.asarray(x, dtype=np.float64)


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


class Node:
    __slots__ = ("idx", "op", "parents", "value", "grad", "aux")

    def __init__(self, idx, op, parents, value, aux=None):
        self.idx = idx
        self.op = op
        self.parents = parents
        self.value = value
        self.grad = None
        self.aux = aux

    @property
    def shape(self):
        return self.value.shape

    def __repr__(self):
        return f"Node({self.idx}, {self.op}, shape={self.value.shape})"


class Tape:
    """Ordered node list plus the named parameter leaves."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    # -- construction -----------------------------------------------------

    def _push(self, op, parents, value, aux=None):
        node = Node(len(self.nodes), op, parents, value, aux)
        self.nodes.append(node)
        return node

    def constant(self, value):
        return self._push("constant", (), _as_f64(value))

    def parameter(self, name, value):
        """Register a named parameter. `value` is used as-is (no copy)."""
        if name in self.params:
            raise GraphError(f"parameter {name!r} registered twice")
        node = self._push("parameter", (), _as_f64(value))
        self.params[name] = node
        return node

    def _binary(self, op, a, b):
        try:
            if op == "add":
                value = a.value + b.value
            elif op == "sub":
                value = a.value - b.value
            elif op == "mul":
                value = a.value * b.value
        except ValueError as exc:
            raise GraphError(f"{op}: incompatible shapes {a.shape} vs {b.shape}") from exc
        return self._push(op, (a, b), value)

    def add(self, a, b):
        return self._binary("add", a, b)

    def sub(self, a, b):
        return self._binary("sub", a, b)

    def mul(self, a, b):
        return self._binary("mul", a, b)

    def scale(self, a, c):
        """Multiply by a python float (treated as a constant)."""
        return self._push("scale", (a,), a.value * float(c), aux=float(c))

    def affine(self, x, w, b):
        """x @ w.T + b with x (B, n_in), w (n_out, n_in), b (n_out,)."""
        if x.value.ndim != 2 or w.value.ndim != 2:
            raise GraphError(f"affine expects 2-D x and w, got {x.shape} and {w.shape}")
        if x.shape[1] != w.shape[1]:
            raise GraphError(f"affine: x cols {x.shape[1]} != w cols {w.shape[1]}")
        if b.value.shape != (w.shape[0],):
            raise GraphError(f"affine: bias shape {b.shape} != ({w.shape[0]},)")
        return self._push("affine", (x, w, b), x.value @ w.value.T + b.value)

    def tanh(self, a):
        return self._push("tanh", (a,), np.tanh(a.value))

    def relu(self, a):
        return self._push("relu", (a,), np.maximum(a.value, 0.0))

    def sigmoid(self, a):
        return self._push("sigmoid", (a,), 1.0 / (1.0 + np.exp(-a.value)))

    def square(self, a):
        return self._push("square", (a,), a.value * a.value)

    def mean(self, a):
        return self._push("mean", (a,), np.asarray(a.value.mean()))

    def concat(self, parts, axis=-1):
        parts = tuple(parts)
        try:
            value = np.concatenate([p.value for p in parts], axis=axis)
        except ValueError as exc:
            raise GraphError(f"concat: incompatible shapes {[p.shape for p in parts]}") from exc
        return self._push("concat", parts, value, aux=axis)

    def gather(self, a, rows):
        """Select rows of a 2-D node by integer index (duplicates allowed)."""
        if a.value.ndim != 2:
            raise GraphError(f"gather expects a 2-D node, got {a.shape}")
        rows = np.asarray(rows, dtype=np.intp)
        return self._push("gather", (a,), a.value[rows], aux=rows)

    def custom(self, parents, value, backward):
        """A node computed outside the tape, with a hand-written gradient.

        `backward(g)` gets the node's gradient and returns one gradient per
        parent, in order, each shaped like that parent's value.
        """
        return self._push("custom", tuple(parents), _as_f64(value), aux=backward)

    # -- backward ----------------------------------------------------------

    def backward(self, root):
        """Backpropagate from a scalar root; returns {name: flat gradient}.

        Every registered parameter gets an entry (zeros when unused).
        """
        if root.value.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.shape}")
        for n in self.nodes:
            n.grad = None
        root.grad = np.ones_like(root.value)
        for n in reversed(self.nodes[: root.idx + 1]):
            if n.grad is None:
                continue
            self._accumulate(n)
        out = {}
        for name, node in self.params.items():
            if node.grad is None:
                out[name] = np.zeros(node.value.size)
            else:
                out[name] = node.grad.ravel()
        return out

    @staticmethod
    def _bump(parent, grad):
        # nothing reads a constant's gradient, and it has no parents to pass
        # one on to, so constants keep grad None
        if parent.op == "constant":
            return
        # gradients are never mutated in place, so aliasing is safe here
        parent.grad = grad if parent.grad is None else parent.grad + grad

    def _accumulate(self, n):
        g = n.grad
        p = n.parents
        if n.op in ("constant", "parameter"):
            return
        if n.op == "add":
            self._bump(p[0], _unbroadcast(g, p[0].shape))
            self._bump(p[1], _unbroadcast(g, p[1].shape))
        elif n.op == "sub":
            self._bump(p[0], _unbroadcast(g, p[0].shape))
            self._bump(p[1], _unbroadcast(-g, p[1].shape))
        elif n.op == "mul":
            self._bump(p[0], _unbroadcast(g * p[1].value, p[0].shape))
            self._bump(p[1], _unbroadcast(g * p[0].value, p[1].shape))
        elif n.op == "scale":
            self._bump(p[0], g * n.aux)
        elif n.op == "affine":
            x, w, _b = p
            self._bump(x, g @ w.value)
            self._bump(w, g.T @ x.value)
            self._bump(_b, g.sum(axis=0))
        elif n.op == "tanh":
            self._bump(p[0], g * (1.0 - n.value * n.value))
        elif n.op == "relu":
            # subgradient at 0 taken as 0
            self._bump(p[0], g * (p[0].value > 0.0))
        elif n.op == "sigmoid":
            self._bump(p[0], g * n.value * (1.0 - n.value))
        elif n.op == "square":
            self._bump(p[0], g * 2.0 * p[0].value)
        elif n.op == "mean":
            self._bump(p[0], np.full(p[0].shape, float(g) / p[0].value.size))
        elif n.op == "concat":
            axis = n.aux
            pos = 0
            for q in p:
                width = q.shape[axis % q.value.ndim]
                idx = [np.s_[:]] * g.ndim
                idx[axis % g.ndim] = np.s_[pos : pos + width]
                self._bump(q, g[tuple(idx)])
                pos += width
        elif n.op == "custom":
            for q, gq in zip(p, n.aux(g), strict=True):
                self._bump(q, gq)
        elif n.op == "gather":
            gp = np.zeros(p[0].shape)
            np.add.at(gp, n.aux, g)
            self._bump(p[0], gp)
        else:  # pragma: no cover
            raise GraphError(f"unknown op {n.op!r}")


@dataclass
class GradCheckReport:
    max_rel_error: float
    passed: bool
    worst: tuple[str, int] | None = None
    non_comparable: list[tuple[str, int]] = field(default_factory=list)


def grad_check(fn, params, h=1e-5, tol=1e-4):
    """Compare reverse-mode gradients of `fn` against central differences.

    `fn(params) -> (value, grads)` where `params` is {name: 1-D array} and
    `grads` is {name: 1-D array}. Components where the two one-sided
    differences disagree strongly (a kink between x-h and x+h) are flagged
    as non-comparable and excluded from the error statistic.

    Relative error is |a - b| / max(1, |a|, |b|).
    """
    if h <= 0:
        raise ValueError("h must be positive")
    value, grads = fn(params)
    if not np.isfinite(value):
        raise NumericError("non-finite function value at the base point")
    report = GradCheckReport(max_rel_error=0.0, passed=True)
    for name, vec in params.items():
        vec = np.asarray(vec, dtype=np.float64)
        for i in range(vec.size):
            pert = {k: np.array(v, dtype=np.float64, copy=True) for k, v in params.items()}
            pert[name][i] = vec[i] + h
            f_plus, _ = fn(pert)
            pert[name][i] = vec[i] - h
            f_minus, _ = fn(pert)
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NumericError(
                    f"non-finite perturbed value at {name}[{i}]", index=(name, i)
                )
            central = (f_plus - f_minus) / (2.0 * h)
            fwd = (f_plus - value) / h
            bwd = (value - f_minus) / h
            scale = max(1.0, abs(fwd), abs(bwd))
            if abs(fwd - bwd) / scale > max(100.0 * tol, 1e-2):
                report.non_comparable.append((name, i))
                continue
            a = float(grads[name][i])
            rel = abs(a - central) / max(1.0, abs(a), abs(central))
            if rel > report.max_rel_error:
                report.max_rel_error = rel
                report.worst = (name, i)
    report.passed = report.max_rel_error <= tol
    return report
