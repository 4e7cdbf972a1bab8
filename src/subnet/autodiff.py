"""Reverse-mode chaining of hand-derived gradient nodes.

A `Tape` holds two kinds of node: named parameter leaves over
caller-owned arrays (used as-is, so a view of a larger buffer stays a
view), and `custom` nodes, each a whole computation whose gradient the
caller derives by hand. The losses record a complete rollout as one such
node and the initial-state source in front of it as another, so a
gradient call's tape holds one leaf per trainable block and two nodes.

`backward` walks the tape in exact reverse creation order, which is a
valid reverse topological order by construction, so gradient
accumulation over fan-out is deterministic. Tapes are single-use: build
the nodes, call backward, throw the tape away.
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


class Node:
    __slots__ = ("idx", "op", "parents", "value", "grad", "aux")

    def __init__(self, idx, op, parents, value, aux=None):
        self.idx = idx
        self.op = op
        self.parents = parents
        self.value = value
        self.grad = None
        self.aux = aux


class Tape:
    """Ordered node list plus the named parameter leaves."""

    def __init__(self):
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}

    def _push(self, op, parents, value, aux=None):
        node = Node(len(self.nodes), op, parents, value, aux)
        self.nodes.append(node)
        return node

    def parameter(self, name, value):
        """Register a named parameter. `value` is used as-is (no copy)."""
        if name in self.params:
            raise GraphError(f"parameter {name!r} registered twice")
        node = self._push("parameter", (), np.asarray(value, dtype=np.float64))
        self.params[name] = node
        return node

    def custom(self, parents, value, backward):
        """A node computed outside the tape, with a hand-written gradient.

        `backward(g)` gets the node's gradient and returns one gradient per
        parent, in order, each shaped like that parent's value.
        """
        value = np.asarray(value, dtype=np.float64)
        return self._push("custom", tuple(parents), value, aux=backward)

    def backward(self, root):
        """Backpropagate from a scalar root; returns {name: flat gradient}.

        Every registered parameter gets an entry (zeros when unused).
        """
        if root.value.size != 1:
            raise GraphError(f"backward root must be scalar, got shape {root.value.shape}")
        for n in self.nodes:
            n.grad = None
        root.grad = np.ones_like(root.value)
        for n in reversed(self.nodes[: root.idx + 1]):
            if n.grad is None or n.op != "custom":
                continue
            for q, gq in zip(n.parents, n.aux(n.grad), strict=True):
                # gradients are never mutated in place, so aliasing is safe here
                q.grad = gq if q.grad is None else q.grad + gq
        return {
            name: np.zeros(node.value.size) if node.grad is None else node.grad.ravel()
            for name, node in self.params.items()
        }


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
