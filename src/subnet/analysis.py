"""Evaluation metrics and data-efficiency checks.

NRMS is RMS error over the population standard deviation of the measured
signal; multi-output records are normalized channel-wise and combined by
root-mean over channels. The section-overlap analysis evaluates the
variance of the sectioned loss at the true parameters, where each section
cost reduces to a windowed mean of squared white noise; its closed-form
variance profile (up to the common Var(v_t) factor) is `g_of_d`, and
`overlap_variance_mc` checks the same ratio by Monte Carlo.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .loss import _windows


class DegenerateSignalError(ValueError):
    """Measured signal has (numerically) zero variance."""


def nrms(y_measured, y_predicted, skip=0):
    """sqrt(mean squared error) / population std of the measured signal.

    The first `skip` samples (encoder warm-up) are excluded from both the
    error and the normalization. Channel-wise for multi-output data, then
    root-mean over channels.
    """
    y_measured = np.atleast_2d(np.asarray(y_measured, dtype=np.float64).T).T
    y_predicted = np.atleast_2d(np.asarray(y_predicted, dtype=np.float64).T).T
    if y_measured.shape != y_predicted.shape:
        raise ValueError(
            f"shape mismatch: {y_measured.shape} vs {y_predicted.shape}"
        )
    ym = y_measured[skip:]
    yp = y_predicted[skip:]
    if len(ym) == 0:
        raise ValueError("no samples left after skip")
    sigma = ym.std(axis=0)
    if np.any(sigma < 1e-12):
        raise DegenerateSignalError("measured signal std is (near) zero")
    # a finite but huge prediction error overflows its square: the NRMS is
    # then inf, with no RuntimeWarning
    with np.errstate(over="ignore"):
        per_channel = np.sqrt(np.mean((ym - yp) ** 2, axis=0)) / sigma
        return float(np.sqrt(np.mean(per_channel**2)))


def free_run_nrms(model, dataset, init):
    """NRMS of a free-run simulation of `dataset` past the encoder warm-up;
    `init` is the initial-state source ("encoder" or "zero")."""
    sim = model.simulate(dataset, init=init)
    return nrms(dataset.y, sim.y_sim, skip=sim.skip)


@dataclass
class KStepProfile:
    values: np.ndarray  # NRMS_{k-step} for k = 0..k_max
    t_idx: np.ndarray  # start times the predictions were made from
    predictions: np.ndarray  # (len(t_idx), k_max+1, n_y), original units


def kstep_nrms(model, dataset, k_max):
    """k-step prediction NRMS profile averaged over all valid start times.

    The measured outputs are read through a window view of `dataset.y`
    (row i, step k is y[t_idx[i] + k]). The squared errors are summed over
    blocks of `KSTEP_BLOCK` rows in row order, with the sum so far as row 0
    of each block's reduction, so the only array beside the predictions is
    one block of errors.
    """
    from .model import KSTEP_BLOCK

    t_idx, preds = model.kstep_predictions(dataset, k_max)
    y_true = _windows(dataset.y, k_max + 1)[t_idx[0] :]  # (num_t, k_max+1, n_y)
    sigma = dataset.y[model.lag :].std(axis=0)
    if np.any(sigma < 1e-12):
        raise DegenerateSignalError("measured signal std is (near) zero")
    rows = len(t_idx)
    # numpy reduces axis 0 row by row, so the carried sum keeps the bits of
    # one sum over all rows; a single column (k_max 0, n_y 1) it sums
    # pairwise, so that is reduced as one block
    block = KSTEP_BLOCK if preds[0].size > 1 else rows
    err = np.empty((min(block, rows) + 1,) + preds.shape[1:])
    with np.errstate(over="ignore"):  # an overflow gives inf, as in `nrms`
        for lo in range(0, rows, block):
            hi = min(lo + block, rows)
            sq = err[1 : hi - lo + 1]
            np.subtract(preds[lo:hi], y_true[lo:hi], out=sq)
            np.square(sq, out=sq)
            err[0] = np.add.reduce(err[: hi - lo + 1] if lo else sq, axis=0)
        mse = err[0] / rows  # (k_max+1, n_y)
        per_channel = np.sqrt(mse) / sigma
        values = np.sqrt(np.mean(per_channel**2, axis=1))
    return KStepProfile(values, t_idx, preds)


def g_of_d(spacing, horizon, m_d):
    """Variance of the mean of m_d section costs spaced `spacing` apart,
    in units of Var(v_t)."""
    if spacing < 1 or horizon < 1 or m_d < 1:
        raise ValueError("spacing, horizon and m_d must be >= 1")
    t = np.arange(1, m_d)
    corr = np.maximum(0.0, 1.0 - t * spacing / horizon)
    return float((m_d + 2.0 * np.sum((m_d - t) * corr)) / m_d**2)


def overlap_variance_mc(horizon, n_samples, n_trials, seed=0):
    """Monte-Carlo variances of the sectioned loss at the true parameters
    for maximal overlap (d=1) versus no overlap (d=T).

    Each trial draws a white Gaussian record; the section cost is then the
    windowed mean of squared noise. Returns (var_d1, var_dT).
    """
    if n_samples < horizon:
        raise ValueError("n_samples must be >= horizon")
    m_1, m_T = mc_start_counts(horizon, n_samples)
    if m_T < 1:
        # no whole d=T stride: the d=T mean would be over no sections
        raise ValueError(f"n_samples must be >= 2*horizon - 1 = {2 * horizon - 1}")
    rng = np.random.default_rng(seed)
    kernel = np.ones(horizon) / horizon
    v1 = np.empty(n_trials)
    vT = np.empty(n_trials)
    starts_T = horizon * np.arange(m_T)
    for trial in range(n_trials):
        e2 = rng.standard_normal(n_samples) ** 2
        v_t = np.convolve(e2, kernel, mode="valid")  # v_t for all starts
        v1[trial] = v_t.mean()
        vT[trial] = v_t[starts_T].mean()
    return float(v1.var()), float(vT.var())


def mc_start_counts(horizon, n_samples):
    """(m_1, m_T) section counts used by `overlap_variance_mc`.

    m_d comes from division with remainder, N - T + 1 = d*m_d + r_d, so the
    d=T case keeps only full strides; including a final partial stride would
    break G(1) <= G(T) at finite N.
    """
    n_starts = n_samples - horizon + 1
    return n_starts, n_starts // horizon
