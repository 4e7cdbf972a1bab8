"""Truncated prediction losses over overlapping subsections.

Start indices are 0-based throughout: a section starting at t uses
u[t-n_b:t], y[t-n_a:t+1] for the encoder and u[t:t+T], y[t:t+T] for the
rollout, so valid starts are {n, n+1, ..., N-T} with n = max(n_a, n_b) and
spacing d keeps every d-th of them. The per-section loss is
v_t = (1/T) sum_k ||y[t+k] - y_hat[t+k|t]||^2 and a batch loss is the plain
mean of v_t over the batch, which keeps stochastic gradients unbiased
regardless of batch size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError, Tape
from .nets import mlp_flat_grad, mlp_graph, mlp_leaves


class EmptyIndexSetError(ValueError):
    """Dataset too short for the requested (T, lags, spacing)."""


@dataclass
class IndexSet:
    starts: np.ndarray  # 0-based section start indices
    horizon: int  # T
    lag: int  # n = max(n_a, n_b)
    spacing: int  # d
    n_samples: int  # N

    def __len__(self):
        return len(self.starts)


def valid_starts(n_samples, horizon, n_a, n_b, spacing=1):
    """All valid section starts for a record of length `n_samples`.

    For spacing 1 the count is N - T - n + 1; general spacing keeps every
    d-th start, i.e. ceil((N - T - n + 1) / d) sections.
    """
    if horizon < 1:
        raise ValueError("horizon T must be >= 1")
    if spacing < 1:
        raise ValueError("spacing d must be >= 1")
    lag = max(n_a, n_b)
    count = n_samples - horizon - lag + 1
    if count < 1:
        raise EmptyIndexSetError(
            f"no valid sections: N={n_samples}, T={horizon}, lag={lag}"
        )
    starts = lag + spacing * np.arange((count + spacing - 1) // spacing)
    return IndexSet(starts, horizon, lag, spacing, n_samples)


def batch_iter(index_set: IndexSet, n_batch, seed, epoch):
    """Seeded permutation of all starts, chunked into batches of <= n_batch.

    Deterministic given (seed, epoch); the union of one epoch's batches is
    the full index set without duplicates.
    """
    if n_batch < 1:
        raise ValueError("n_batch must be >= 1")
    rng = np.random.default_rng([int(seed) & 0x7FFFFFFF, int(epoch)])
    perm = rng.permutation(len(index_set.starts))
    starts = index_set.starts[perm]
    for pos in range(0, len(starts), n_batch):
        yield starts[pos : pos + n_batch]


def _roll_windows(u, y, starts, horizon):
    offs = np.arange(horizon)
    idx = np.asarray(starts)[:, None] + offs
    return u[idx], y[idx]


def _enc_windows(u, y, starts, n_a, n_b):
    starts = np.asarray(starts)
    u_enc = u[starts[:, None] + np.arange(-n_b, 0)]
    y_enc = y[starts[:, None] + np.arange(-n_a, 1)]
    return u_enc, y_enc


def rollout_loss_graph(tape: Tape, model, u_roll, y_roll, x0_node, param_nodes):
    """Differentiable batch rollout loss: mean_t v_t over the batch.

    `x0_node` is the (B, n_x) initial-state node (from the encoder graph or
    a trainable-state gather); `param_nodes` maps "f"/"h" to their block
    leaves and "K" to the gain node. Returns the scalar loss node.
    """
    b, horizon = u_roll.shape[:2]
    n_y = model.n_y
    tag = model.noise.tag
    if tag == "linear-innovation":
        gain = param_nodes["K"]
        zero_x = tape.constant(np.zeros(model.n_x))
    errors = []
    x = x0_node
    for k in range(horizon):
        y_hat = mlp_graph(tape, model.h_spec, param_nodes["h"], x)
        err = tape.sub(tape.constant(y_roll[:, k]), y_hat)
        errors.append(err)
        if k + 1 < horizon:
            u_k = tape.constant(u_roll[:, k])
            if tag == "general-innovation":
                z = tape.concat([x, u_k, err], axis=1)
                x = mlp_graph(tape, model.f_spec, param_nodes["f"], z)
            else:
                z = tape.concat([x, u_k], axis=1)
                x = mlp_graph(tape, model.f_spec, param_nodes["f"], z)
                if tag == "linear-innovation":
                    x = tape.add(x, tape.affine(err, gain, zero_x))
    stacked = errors[0] if horizon == 1 else tape.concat(errors, axis=1)
    # mean over (B, T*n_y) elements times n_y = (1/(B*T)) sum ||err||^2
    return tape.scale(tape.mean(tape.square(stacked)), n_y)


def _register_model_params(tape, model, include_encoder=True):
    """Leaves for every block of f, h (and psi), plus the gain K when present."""
    nets = {"f": model.f_params, "h": model.h_params}
    if include_encoder:
        nets["psi"] = model.psi_params
    nodes = {name: mlp_leaves(tape, name, params) for name, params in nets.items()}
    if model.noise.tag == "linear-innovation":
        nodes["K"] = tape.parameter("K", model.noise.gain)
    return nodes


def _backward(tape, root, model, names):
    """One flat gradient per trainable block in `names` (f, h, psi, K, x0)."""
    grads = tape.backward(root)
    specs = {"f": model.f_spec, "h": model.h_spec, "psi": model.psi_spec}
    return {
        name: mlp_flat_grad(specs[name], name, grads) if name in specs else grads[name]
        for name in names
    }


def _check_finite(loss, u_roll, y_roll, model, x0, starts):
    if np.isfinite(loss):
        return
    # find the offending section by re-rolling without gradients
    for i, start in enumerate(np.asarray(starts)):
        try:
            y_hat, _, _ = model.rollout_batch(
                x0[i : i + 1], u_roll[i : i + 1], y_roll[i : i + 1]
            )
        except NumericError as exc:
            raise NumericError(
                f"numeric divergence in section starting at {start} "
                f"(step {exc.index})",
                index=int(start),
            ) from exc
        if not np.all(np.isfinite(y_hat)):
            raise NumericError(
                f"numeric divergence in section starting at {start}", index=int(start)
            )
    raise NumericError("non-finite loss")


def encoder_loss(model, u, y, starts, horizon, with_grad=False):
    """Mean per-section loss with encoder-estimated initial states.

    `u`, `y` are the full normalized record; `starts` a non-empty array of
    section starts. Returns the scalar loss, or (loss, grads) with one flat
    gradient per trainable block when `with_grad`.
    """
    starts = np.asarray(starts)
    if starts.size == 0:
        raise EmptyIndexSetError("empty index subset")
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u_roll, y_roll = _roll_windows(u, y, starts, horizon)
    u_enc, y_enc = _enc_windows(u, y, starts, model.n_a, model.n_b)
    b = len(starts)
    tape = Tape()
    params = _register_model_params(tape, model)
    enc_in = tape.constant(
        np.concatenate([u_enc.reshape(b, -1), y_enc.reshape(b, -1)], axis=1)
    )
    x0_node = mlp_graph(tape, model.psi_spec, params["psi"], enc_in)
    root = rollout_loss_graph(tape, model, u_roll, y_roll, x0_node, params)
    loss = float(root.value)
    if not np.isfinite(loss):
        _check_finite(loss, u_roll, y_roll, model, model.encode(u_enc, y_enc), starts)
    if not with_grad:
        return loss
    return loss, _backward(tape, root, model, params)


def trainable_state_loss(
    model, u, y, starts, positions, states, horizon, with_grad=False
):
    """Section loss with per-section trainable initial states (no encoder).

    `states` is the full (n_sections, n_x) bank; `positions` are the rows of
    that bank matching `starts`. Gradients flow to the "x0" block (flattened
    bank) as well as to f/h (and K).
    """
    starts = np.asarray(starts)
    if starts.size == 0:
        raise EmptyIndexSetError("empty index subset")
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u_roll, y_roll = _roll_windows(u, y, starts, horizon)
    tape = Tape()
    params = _register_model_params(tape, model, include_encoder=False)
    params["x0"] = tape.parameter("x0", states)
    x0_node = tape.gather(params["x0"], np.asarray(positions))
    root = rollout_loss_graph(tape, model, u_roll, y_roll, x0_node, params)
    loss = float(root.value)
    if not np.isfinite(loss):
        _check_finite(loss, u_roll, y_roll, model, x0_node.value, starts)
    if not with_grad:
        return loss
    return loss, _backward(tape, root, model, params)


def full_prediction_loss(model, u, y, x1, with_grad=False):
    """Whole-record prediction loss (1/N) sum ||y_k - y_hat_k||^2 from a
    single trainable initial state x1 (the classical full-horizon baseline)."""
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    states = np.asarray(x1, dtype=np.float64).reshape(1, model.n_x)
    return trainable_state_loss(
        model, u, y, np.array([0]), np.array([0]), states, len(u), with_grad=with_grad
    )
