"""Shared helpers: hand-settable toy models with known closed forms, a
per-row reference for where a batch diverges, and one state update of the
synthetic system."""

import numpy as np

from subnet import data
from subnet.autodiff import NumericError
from subnet.model import NoiseStructure, SubnetModel
from subnet.nets import MlpParams, MlpSpec


def linear_toy_model(noise="output-error", a=0.5, b_u=1.0, c_e=0.1, gain=None,
                     n_a=1, n_b=1, exact_encoder=False):
    """Scalar system f = a*x + b_u*u (+ c_e*e for general-innovation), h = x.

    All nets are single linear layers without bypass so the weights can be
    set exactly. The encoder outputs zero unless `exact_encoder`, in which
    case it returns the newest output sample (the true state, since h = x).
    """
    f_in = 2 if noise != "general-innovation" else 3
    f_spec = MlpSpec(f_in, 1, hidden_layers=0, bypass=False)
    h_spec = MlpSpec(1, 1, hidden_layers=0, bypass=False)
    enc_in = n_b + (n_a + 1)
    psi_spec = MlpSpec(enc_in, 1, hidden_layers=0, bypass=False)

    f_params = MlpParams(f_spec, np.zeros(f_spec.param_count))
    f_params.view("w0")[0, 0] = a
    f_params.view("w0")[0, 1] = b_u
    if noise == "general-innovation":
        f_params.view("w0")[0, 2] = c_e
    h_params = MlpParams(h_spec, np.zeros(h_spec.param_count))
    h_params.view("w0")[0, 0] = 1.0
    psi_params = MlpParams(psi_spec, np.zeros(psi_spec.param_count))
    if exact_encoder:
        psi_params.view("w0")[0, enc_in - 1] = 1.0  # newest y sample

    if noise == "linear-innovation" and gain is None:
        gain = np.zeros((1, 1))
    return SubnetModel(
        1, 1, 1, n_a, n_b,
        f_spec, h_spec, psi_spec,
        f_params, h_params, psi_params,
        NoiseStructure(noise, gain),
    )


def roll_windows(u, y, starts, horizon):
    """The rollout windows of `starts`, gathered by index: the reference for
    the loss's window views."""
    idx = np.asarray(starts)[:, None] + np.arange(horizon)
    return u[idx], y[idx]


def first_divergence(model, x0, u_roll, y_roll=None):
    """(step, row) of a batch's earliest non-finite prediction, lowest row
    first, from one B=1 rollout per row, or None: the reference for the
    location that the batch's own scan reports."""
    found = None
    for i in range(len(x0)):
        rows = slice(i, i + 1)
        try:
            model.rollout_batch(
                x0[rows], u_roll[rows], None if y_roll is None else y_roll[rows]
            )
        except NumericError as exc:
            if found is None or exc.index < found[0]:
                found = (exc.index, i)
    return found


def simulate_linear_toy(u, a=0.5, b_u=1.0, x0=0.0):
    """Reference rollout of the toy system, y_k = x_k."""
    u = np.asarray(u, dtype=np.float64).reshape(-1)
    y = np.empty(len(u))
    x = x0
    for k in range(len(u)):
        y[k] = x
        x = a * x + b_u * u[k]
    return y


def sim_system_step(x, u, e=0.0, variant="base", gain=None):
    """One state update of the synthetic system (noise-free when e=0)."""
    x1, x2 = x
    return np.array(data._step(x1, x2, u, e, variant, gain))
