import tracemalloc

import numpy as np
import pytest
from conftest import linear_toy_model, simulate_linear_toy
from hypothesis import given, settings
from hypothesis import strategies as st

from subnet.analysis import (
    DegenerateSignalError,
    g_of_d,
    kstep_nrms,
    mc_start_counts,
    nrms,
    overlap_variance_mc,
)
from subnet.data import IoDataset, benchmark_splits
from subnet.loss import encoder_loss, valid_starts
from subnet.model import build_model
from subnet.optim import TrainConfig, fit_normalization


def test_nrms_trivial_values():
    y = np.array([1.0, 2.0, 3.0])
    assert nrms(y, y) == 0.0
    assert nrms(np.array([0.0, 2.0]), np.zeros(2)) == pytest.approx(np.sqrt(2.0))
    rng = np.random.default_rng(0)
    y = rng.normal(size=500)
    assert nrms(y, np.full(500, y.mean())) == pytest.approx(1.0)


def test_nrms_skip_and_errors():
    y = np.concatenate([[1e6], np.arange(10.0)])
    y_hat = np.concatenate([[0.0], np.arange(10.0)])
    assert nrms(y, y_hat, skip=1) == 0.0
    with pytest.raises(ValueError):
        nrms(np.zeros(3), np.zeros(4))
    with pytest.raises(ValueError):
        nrms(np.zeros(3), np.zeros(3), skip=3)
    with pytest.raises(DegenerateSignalError):
        nrms(np.ones(10), np.zeros(10))


def test_nrms_multichannel_root_mean():
    y = np.stack([np.array([0.0, 2.0]), np.array([0.0, 2.0])], axis=1)
    y_hat = np.stack([np.zeros(2), np.array([0.0, 2.0])], axis=1)
    # channel NRMS values are sqrt(2) and 0; root-mean gives 1
    assert nrms(y, y_hat) == pytest.approx(1.0)


@settings(max_examples=30, deadline=None)
@given(scale=st.floats(0.01, 1e4))
def test_nrms_scale_invariance(scale):
    rng = np.random.default_rng(7)
    y = rng.normal(size=100)
    y_hat = y + rng.normal(0, 0.3, size=100)
    assert nrms(scale * y, scale * y_hat) == pytest.approx(nrms(y, y_hat), rel=1e-9)


def test_kstep_perfect_model_all_zero():
    model = linear_toy_model(exact_encoder=True)
    rng = np.random.default_rng(1)
    u = rng.uniform(-1, 1, size=150)
    ds = IoDataset(u, simulate_linear_toy(u))
    profile = kstep_nrms(model, ds, k_max=6)
    assert len(profile.values) == 7
    assert np.allclose(profile.values, 0.0, atol=1e-10)


def test_kstep_matches_encoder_loss_for_oe():
    # identity normalization, scalar output: mean_k NRMS_k^2 * sigma^2 == loss
    model = build_model(2, 1, 1, 3, 3, hidden_layers=1, hidden_width=5, seed=6)
    rng = np.random.default_rng(6)
    n, horizon = 60, 5
    ds = IoDataset(rng.normal(size=(n, 1)), rng.normal(size=(n, 1)))
    profile = kstep_nrms(model, ds, k_max=horizon - 1)
    idx = valid_starts(n, horizon, 3, 3)
    # kstep averages over t in [lag, N-1-k_max], the same set as idx.starts
    assert idx.starts[0] == model.lag and idx.starts[-1] == n - horizon
    loss = encoder_loss(model, ds.u, ds.y, idx.starts, horizon)
    sigma2 = ds.y[model.lag :].var()
    assert np.mean(profile.values**2) * sigma2 == pytest.approx(loss, rel=1e-10)


@pytest.mark.parametrize("n_y", [1, 2])
@pytest.mark.parametrize(
    "k_max,n",
    [(0, 3000), (3, 3000), (40, 3000), (0, 2600), (40, 2600)],
    ids=["0", "3", "40", "0-n2600", "40-n2600"],
)
def test_kstep_nrms_bits_match_gathered_formula(n_y, k_max, n):
    # the window view and the squared-error sum carried over 1024-row blocks
    # give the bits of the gathered formula over one whole error buffer. At
    # 2600 samples the 2596 starts of k_max 0 end in a 1572-row rollout
    # block and, at n_y 2, a 548-row error block; at k_max 0 with n_y 1
    # numpy sums the contiguous axis 0 pairwise, in one block
    rng = np.random.default_rng(n_y + 10 * k_max)
    u = rng.normal(size=(n, 1))
    y = np.stack(
        [np.convolve(u[:, 0], [0.5, 0.3, 0.2 * c])[:n] for c in range(n_y)], axis=1
    ) + 0.1 * rng.normal(size=(n, n_y))
    model = build_model(3, 1, n_y, 4, 4, hidden_layers=1, hidden_width=8, seed=n_y)
    profile = kstep_nrms(model, IoDataset(u, y), k_max)
    t_idx, preds = model.kstep_predictions(IoDataset(u, y), k_max)
    assert np.array_equal(profile.t_idx, t_idx)
    assert np.array_equal(t_idx, np.arange(model.lag, n - k_max))
    mse = np.mean((preds - y[t_idx[:, None] + np.arange(k_max + 1)]) ** 2, axis=0)
    per_channel = np.sqrt(mse) / y[model.lag :].std(axis=0)
    assert np.array_equal(profile.values, np.sqrt(np.mean(per_channel**2, axis=1)))


def test_kstep_nrms_memory_is_one_block_beside_the_predictions():
    # 40000 samples at k_max 0: the predictions and the error buffer take
    # 0.3 MiB each, and one 1024-row block of encoder and rollout buffers
    # about 2 MiB. Gathering the encoder input, the rollout windows and the
    # measured windows over every start took a 53 MiB peak
    rng = np.random.default_rng(0)
    n = 40_000
    u = rng.normal(size=(n, 1))
    ds = IoDataset(u, np.tanh(np.convolve(u[:, 0], [0.5, 0.3])[:n]))
    model = build_model(4, 1, 1, 10, 10, seed=0)
    tracemalloc.start()
    try:
        kstep_nrms(model, ds, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_kstep_nrms_memory_at_k_max_40():
    # the eval command's k-step on the benchmark's test split: 9950 starts
    # of 41 steps make 3.1 MiB of predictions. Beside them stand one
    # 1024-row block of errors and the rollout's last, 1758-row block,
    # whose states and hidden buffers are one step deep. A whole error
    # buffer and every state of that block took a 10.3 MiB peak
    train, _, test = benchmark_splits(3)
    cfg = TrainConfig()
    model = build_model(cfg.n_x, train.n_u, train.n_y, cfg.n_a, cfg.n_b,
                        seed=cfg.seed, norm=fit_normalization(train))
    tracemalloc.start()
    try:
        kstep_nrms(model, test, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7 * 2**20


def test_g_of_d_hand_value():
    assert g_of_d(1, 2, 3) == 5.0 / 9.0


def test_g_of_d_no_overlap_reduces_to_one_over_m():
    for horizon, m_d in [(4, 3), (8, 10), (2, 7)]:
        assert g_of_d(horizon, horizon, m_d) == pytest.approx(1.0 / m_d)
        assert g_of_d(horizon + 3, horizon, m_d) == pytest.approx(1.0 / m_d)


def test_g_of_d_single_section():
    for d in (1, 2, 16):
        assert g_of_d(d, 8, 1) == 1.0


def test_g_of_d_validates_args():
    with pytest.raises(ValueError):
        g_of_d(0, 4, 3)


def test_g_sweep_overlap_never_worse():
    for horizon in range(1, 65):
        n_samples = 10 * horizon
        m_1, m_t = mc_start_counts(horizon, n_samples)
        assert g_of_d(1, horizon, m_1) <= g_of_d(horizon, horizon, m_t) + 1e-15


def test_overlap_variance_mc_t1_identical():
    var1, var_t = overlap_variance_mc(1, 64, 500, seed=3)
    assert var1 == var_t


def test_overlap_variance_mc_theorem_and_ratio():
    horizon, n_samples, n_trials = 8, 512, 2000
    var1, var_t = overlap_variance_mc(horizon, n_samples, n_trials, seed=0)
    assert var1 <= var_t
    m_1, m_t = mc_start_counts(horizon, n_samples)
    analytic = g_of_d(1, horizon, m_1) / g_of_d(horizon, horizon, m_t)
    assert var1 / var_t == pytest.approx(analytic, rel=0.10)


def test_overlap_variance_mc_deterministic():
    a = overlap_variance_mc(4, 128, 100, seed=5)
    assert a == overlap_variance_mc(4, 128, 100, seed=5)
    with pytest.raises(ValueError):
        overlap_variance_mc(16, 8, 10)


def test_overlap_variance_mc_needs_one_no_overlap_section():
    # N=2, T=2 has one d=1 section and no whole d=T stride: a ValueError,
    # not the NaN variance of an empty mean
    with pytest.raises(ValueError, match="2\\*horizon - 1 = 3"):
        overlap_variance_mc(2, 2, 5)
    assert np.isfinite(overlap_variance_mc(2, 3, 5)).all()


def test_nrms_overflow_is_inf_without_warning():
    # a finite prediction error whose square overflows (the suite turns a
    # RuntimeWarning into a failure)
    assert nrms(np.array([0.0, 1.0, 2.0]), np.array([1e200, 0.0, 0.0])) == np.inf
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=3, seed=0)
    model.h_params.view("b1")[:] = 1e200
    rng = np.random.default_rng(0)
    profile = kstep_nrms(model, IoDataset(rng.normal(size=30), rng.normal(size=30)), 2)
    assert np.all(profile.values == np.inf)
