"""Truncated prediction losses over overlapping subsections.

Start indices are 0-based throughout: a section starting at t uses
u[t-n_b:t], y[t-n_a:t+1] for the encoder and u[t:t+T], y[t:t+T] for the
rollout, so valid starts are {n, n+1, ..., N-T} with n = max(n_a, n_b) and
spacing d keeps every d-th of them. The per-section loss is
v_t = (1/T) sum_k ||y[t+k] - y_hat[t+k|t]||^2 and a batch loss is the plain
mean of v_t over the batch, which keeps stochastic gradients unbiased
regardless of batch size.

`encoder_loss` and `trainable_state_loss` are one section loss over two
sources of initial states: the encoder psi over each section's past
window, or rows of a trainable bank with one state per section. Each
gradient is derived by hand. The loss runs its forward pass through
`SubnetModel.rollout_batch`, the same rollout that `simulate` and
`kstep_predictions` use, with a cache of the per-step states, f inputs and
hidden activations; its gradient is a hand-written backpropagation through
time (the adjoint form of a simulation loss): a reverse-time loop over the
state adjoint, then one matmul per weight block over all steps. The
state adjoint of step 0 then passes back through the source: through
psi's hand backward, or summed into the bank rows with `np.add.at`. The
tape only chains these nodes: one leaf per trainable block, the source
node and the rollout node. A divergence names the section and step of the
batch's earliest non-finite prediction (step 0 for a non-finite initial
state), or else squared error, or else, when only their mean overflows,
of the largest squared error: earliest step first, then lowest row.

Every (T, B, .) buffer of that gradient path, the rollout cache and the
adjoint buffers alike, is a view of one module-level workspace buffer per
role, grown when a call needs more and otherwise reused, so a training run
does not allocate (and page-fault) them afresh at every batch. Its one
rule: a gradient call's buffers stay valid only until the next gradient
call. This holds because every tape is backpropagated inside the loss call
that built it. Under output-error the innovation feeds nothing back, so
h's output adjoint is known before f's reverse-time loop: h finishes
first, with `nets.mlp_backward_in_place` forming each hidden layer's delta
over its activations, and its activation buffers then hold f's deltas. The
encoder psi's adjoint is known up front too, and its deltas overwrite its
(B, width) activations. So output-error keeps one buffer per hidden layer
of h and of f; the innovation structures run h inside the loop and keep
separate "h_deltas" and "f_deltas" roles. Besides these there is "tmp":
the (max(B, _CHUNK), width) scratch rows that the backward writes each
hidden layer's back-propagated adjoint into before it multiplies in the
activation derivative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .autodiff import NumericError, Tape
from .nets import (
    mlp_act_grads, mlp_backward, mlp_backward_in_place, mlp_block_grads, mlp_forward,
)


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
    rng = np.random.default_rng([int(seed), int(epoch)])
    perm = rng.permutation(len(index_set.starts))
    starts = index_set.starts[perm]
    for pos in range(0, len(starts), n_batch):
        yield starts[pos : pos + n_batch]


def _windows(a, width):
    """(len(a) - width + 1, width, channels) view of `a`: row i, step k is
    a[i + k]. Indexing its rows with the starts gathers their sections."""
    return np.lib.stride_tricks.sliding_window_view(a, width, axis=0).transpose(0, 2, 1)


def _enc_windows(u, y, starts, n_a, n_b):
    starts = np.asarray(starts)
    u_enc = u[starts[:, None] + np.arange(-n_b, 0)]
    y_enc = y[starts[:, None] + np.arange(-n_a, 1)]
    return u_enc, y_enc


# rows per stacked backward call: enough to amortise the per-call overhead
# over many B=1 steps, few enough that one call at B=256 covers one step,
# since larger temporaries cost more than they save
_CHUNK = 256


# one flat float64 buffer per role of the gradient path (see the module
# docstring); a buffer only grows, so a smaller batch reuses a prefix of it
_workspace = {}


def _take(role, shape):
    """A `shape` view of the workspace buffer for `role`, contents undefined.

    The view is a contiguous prefix of the buffer, which is replaced by a
    larger one when `shape` does not fit.
    """
    size = int(np.prod(shape))
    buf = _workspace.get(role)
    if buf is None or buf.size < size:
        buf = _workspace[role] = np.empty(size)
    return buf[:size].reshape(shape)


def _rows(a):
    """Stack the leading (T, B) axes of a cache buffer into T*B rows."""
    return a.reshape(-1, a.shape[-1])


def _first_nonfinite(a):
    """(step, row) of a (B, T, n) array's earliest non-finite entry, lowest
    row first, or None. Only a failed scan looks for the row."""
    steps = np.isfinite(a).all(axis=(0, 2))
    k = int(np.argmin(steps))
    if not steps[k]:
        return k, int(np.argmin(np.isfinite(a[:, k]).all(axis=1)))


def _rollout_value(model, u_roll, y_roll, x0, starts, cache=None):
    """The batch rollout loss mean_t v_t from x0 (B, n_x), and e_hat; a
    non-finite prediction, squared error or mean raises a located
    `NumericError`."""
    try:
        _, e_hat = model.rollout_batch(x0, u_roll, y_roll, cache=cache)
    except NumericError as exc:
        where = exc.index, exc.row
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            sq = e_hat * e_hat
            # n_y times the mean over B*T*n_y errors is (1/(B*T)) sum ||err||^2
            value = np.asarray(sq.mean()) * float(model.n_y)
        if np.isfinite(value):
            return value, e_hat
        where = _first_nonfinite(sq)
        if where is None:  # finite squares whose mean overflows: the largest
            largest = (sq == sq.max()).any(axis=2)  # (B, T)
            k = int(np.argmax(largest.any(axis=0)))
            where = k, int(np.argmax(largest[:, k]))
    k, start = where[0], int(starts[where[1]])
    raise NumericError(f"numeric divergence in section starting at {start} (step {k})",
                       index=start)


def _rollout_loss(tape, model, u_roll, y_roll, x0_node, leaves, starts):
    """`_rollout_value` as one tape node, with its adjoint as the gradient.

    `x0_node` is the (B, n_x) initial-state node; `leaves` maps "f", "h"
    (and "K") to their flat parameter leaves. These are the node's parents.
    """
    b, horizon = u_roll.shape[:2]
    n_x, n_u, n_y = model.n_x, model.n_u, model.n_y
    tag = model.noise.tag
    cache = {}
    value, e_hat = _rollout_value(model, u_roll, y_roll, x0_node.value, starts, cache)
    f, h = model.f_params, model.h_params
    f_acts, h_acts = cache["f_acts"], cache["h_acts"]

    def backward(g):
        # adjoint of the errors, in the cache's (T, B, n_y) layout: the loss
        # is n_y times the mean over B*T*n_y squared errors
        d_err = e_hat.transpose(1, 0, 2) * (2.0 * float(g) * n_y / (b * horizon * n_y))
        g_y = _take("g_y", d_err.shape)  # adjoint of y_hat: h's output adjoint
        g_f = _take("g_f", (horizon - 1, b, n_x))  # f's output adjoint
        # mlp_backward's scratch rows; f and h never use it at the same time
        f_tmp = _take("tmp", (max(b, _CHUNK), model.f_spec.hidden_width))
        h_tmp = _take("tmp", (max(b, _CHUNK), model.h_spec.hidden_width))
        # each mlp_backward call completes deltas that hold the activation
        # derivatives; these are formed a chunk of whole steps (about _CHUNK
        # rows) at a time, just before the steps that read them, so that
        # they are still in cache at B=256 and cost few calls at B=1
        step = max(1, _CHUNK // b)
        if tag == "output-error":
            # the innovation feeds nothing, so h's output adjoint is known
            # and h finishes ahead of the loop, over the same chunks of steps
            # stacked into rows, with its deltas over its activations. Then
            # its activation buffers are free, and they hold f's deltas
            np.negative(d_err, out=g_y)
            h_grad, g_hx = mlp_backward_in_place(
                model.h_spec, h, _rows(cache["x"]), [_rows(a) for a in h_acts],
                _rows(g_y), h_tmp[: step * b],
            )
            g_hx = g_hx.reshape(horizon, b, n_x)
            f_deltas = [_take(f"h_acts{i}", a.shape) for i, a in enumerate(f_acts)]
        else:
            f_deltas = [_take(f"f_deltas{i}", a.shape) for i, a in enumerate(f_acts)]
            h_deltas = [_take(f"h_deltas{i}", a.shape) for i, a in enumerate(h_acts)]
        lam = None  # state adjoint of step 0
        for k in reversed(range(horizon)):
            if k + 1 == horizon or (k + 1) % step == 0:
                # the chunk of steps that ends at k (f has one step fewer)
                c = slice(k - k % step, k + 1)
                mlp_act_grads(
                    model.f_spec, [a[c] for a in f_acts], [d[c] for d in f_deltas]
                )
                if tag != "output-error":
                    mlp_act_grads(
                        model.h_spec, [a[c] for a in h_acts], [d[c] for d in h_deltas]
                    )
            if k + 1 < horizon:
                # g_f[k] holds the state adjoint of step k + 1
                g_z = mlp_backward(
                    model.f_spec, f, g_f[k], [d[k] for d in f_deltas], f_tmp
                )
            if tag == "output-error":
                g_x = g_hx[k]
            else:
                # the innovation e_k = y_k - h(x_k) also feeds step k + 1
                g_e = d_err[k]
                if k + 1 < horizon:
                    if tag == "general-innovation":
                        g_e = g_e + g_z[:, n_x + n_u :]
                    else:
                        g_e = g_e + g_f[k] @ model.noise.gain
                np.negative(g_e, out=g_y[k])
                g_x = mlp_backward(
                    model.h_spec, h, g_y[k], [d[k] for d in h_deltas], h_tmp
                )
            if k == 0:
                lam = g_x if horizon == 1 else g_x + g_z[:, :n_x]
            elif k + 1 == horizon:
                g_f[k - 1] = g_x
            else:
                np.add(g_x, g_z[:, :n_x], out=g_f[k - 1])
        if tag != "output-error":
            h_grad = mlp_block_grads(
                model.h_spec, _rows(cache["x"]), [_rows(a) for a in h_acts],
                [_rows(d) for d in h_deltas], _rows(g_y),
            )
        grads = [
            lam,
            mlp_block_grads(
                model.f_spec, _rows(cache["f_in"]), [_rows(a) for a in f_acts],
                [_rows(d) for d in f_deltas], _rows(g_f),
            ),
            h_grad,
        ]
        if tag == "linear-innovation":
            grads.append(_rows(g_f).T @ _rows(e_hat.transpose(1, 0, 2)[:-1]))
        return grads

    parents = [x0_node, leaves["f"], leaves["h"]]
    if tag == "linear-innovation":
        parents.append(leaves["K"])
    return tape.custom(parents, value, backward)


def _encoder_states(model, u, y, starts, with_grad):
    """psi over the encoder windows of `starts`, warnings silenced: the (B, n_x)
    initial states and, when `with_grad`, the backward from their adjoint to
    psi's flat gradient."""
    u_enc, y_enc = _enc_windows(u, y, starts, model.n_a, model.n_b)
    b = len(starts)
    spec, psi = model.psi_spec, model.psi_params
    enc_in = np.concatenate([u_enc.reshape(b, -1), y_enc.reshape(b, -1)], axis=1)
    acts = [_take(f"psi_acts{i}", (b, spec.hidden_width))
            for i in range(spec.hidden_layers)] if with_grad else None
    with np.errstate(over="ignore", invalid="ignore"):
        x0 = mlp_forward(spec, psi, enc_in, acts)
    if not with_grad:
        return x0, None

    def backward(lam):
        # the rollout's backward is done with the scratch rows by now; psi's
        # deltas overwrite its activations
        tmp = _take("tmp", (b, spec.hidden_width))
        return mlp_backward_in_place(spec, psi, enc_in, acts, lam, tmp)[0]

    return x0, backward


def _section_loss(model, u, y, starts, horizon, blocks, source, initial_states,
                  with_grad):
    """The mean section loss from the initial states of one source.

    `initial_states(u, y, starts, with_grad)` gives the (B, n_x) initial
    states and, when `with_grad`, the backward from their adjoint to the
    flat gradient of `blocks[source]`, the block they come from. Returns
    the scalar loss, or (loss, grads) with one flat gradient per block of
    `blocks` when `with_grad`.
    """
    starts = np.asarray(starts)
    if starts.size == 0:
        raise EmptyIndexSetError("empty index subset")
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    u_roll = _windows(u, horizon)[starts]
    y_roll = _windows(y, horizon)[starts]
    x0, x0_backward = initial_states(u, y, starts, with_grad)
    if not with_grad:
        return float(_rollout_value(model, u_roll, y_roll, x0, starts)[0])
    tape = Tape()
    leaves = {name: tape.parameter(name, flat) for name, flat in blocks.items()}
    x0_node = tape.custom([leaves[source]], x0, lambda g: [x0_backward(g)])
    root = _rollout_loss(tape, model, u_roll, y_roll, x0_node, leaves, starts)
    return float(root.value), tape.backward(root)


def encoder_loss(model, u, y, starts, horizon, with_grad=False):
    """Mean per-section loss with encoder-estimated initial states.

    `u`, `y` are the full normalized record; `starts` a non-empty array of
    section starts. Returns the scalar loss, or (loss, grads) with one flat
    gradient per trainable block when `with_grad`.
    """
    return _section_loss(model, u, y, starts, horizon, model.param_blocks(), "psi",
                         partial(_encoder_states, model), with_grad)


def trainable_state_loss(
    model, u, y, starts, positions, states, horizon, with_grad=False
):
    """Section loss with per-section trainable initial states (no encoder).

    `states` is the full (n_sections, n_x) bank; `positions` are the rows of
    that bank matching `starts`. Gradients flow to the "x0" block (flattened
    bank) as well as to f/h (and K).
    """
    states = np.asarray(states, dtype=np.float64)
    positions = np.asarray(positions, dtype=np.intp)

    def initial_states(u, y, starts, with_grad):
        def backward(lam):
            grad = np.zeros(states.shape)
            np.add.at(grad, positions, lam)
            return grad

        return states[positions], backward

    blocks = model.param_blocks()
    del blocks["psi"]
    blocks["x0"] = states.reshape(-1)
    return _section_loss(model, u, y, starts, horizon, blocks, "x0", initial_states,
                         with_grad)


def full_prediction_loss(model, u, y, x1, with_grad=False):
    """Whole-record prediction loss (1/N) sum ||y_k - y_hat_k||^2 from a
    single trainable initial state x1 (the classical full-horizon baseline)."""
    u = np.asarray(u, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    states = np.asarray(x1, dtype=np.float64).reshape(1, model.n_x)
    return trainable_state_loss(
        model, u, y, np.array([0]), np.array([0]), states, len(u), with_grad=with_grad
    )
