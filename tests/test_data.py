import numpy as np
import pytest

from subnet.data import (
    BENCHMARK_SPLIT_SIZES,
    SIGMA_E_20DB,
    CsvFormatError,
    InstabilityError,
    IoDataset,
    SimSystemConfig,
    generate_sim_system,
    load_csv,
    benchmark_splits,
    save_csv,
    sim_system_step,
    slice_splits,
)


def test_equilibrium_point():
    x_next = sim_system_step(np.array([0.68, 0.68]), 0.0)
    assert np.max(np.abs(x_next - [0.68, 0.68])) < 0.01
    x_next = sim_system_step(np.array([-0.68, -0.68]), 0.0)
    assert np.max(np.abs(x_next - [-0.68, -0.68])) < 0.01


def test_origin_is_equilibrium():
    ds = generate_sim_system(SimSystemConfig(n_samples=50, input_range=(-1e-12, 1e-12)))
    assert np.max(np.abs(ds.y)) < 1e-7


def test_process_noise_gain_value():
    cfg = SimSystemConfig(variant="linear-process-noise", sigma_k=2.0, n_samples=10)
    exact = 2.0 * np.array([1.0, -0.9]) / np.sqrt(1.81)
    assert np.allclose(cfg.gain, exact, rtol=0, atol=1e-15)
    # quoted 5-decimal reference, which is off by ~2e-5 from the exact value
    assert np.allclose(cfg.gain, [1.48657, -1.33791], atol=5e-5)


def test_generator_determinism_and_seed_sensitivity():
    cfg = SimSystemConfig(sigma_e=0.1, n_samples=500, seed=4)
    a = generate_sim_system(cfg)
    b = generate_sim_system(cfg)
    assert np.array_equal(a.u, b.u) and np.array_equal(a.y, b.y)
    c = generate_sim_system(SimSystemConfig(sigma_e=0.1, n_samples=500, seed=5))
    assert not np.array_equal(a.u, c.u)


def test_snr_of_default_noise_level():
    seed = 0
    noisy = generate_sim_system(SimSystemConfig(sigma_e=SIGMA_E_20DB, n_samples=10_000, seed=seed))
    clean = generate_sim_system(SimSystemConfig(sigma_e=0.0, n_samples=10_000, seed=seed))
    assert np.array_equal(noisy.u, clean.u)
    noise = noisy.y - clean.y
    snr_db = 10 * np.log10(clean.y.var() / noise.var())
    assert abs(snr_db - 20.0) < 1.0


def test_stability_long_record():
    ds = generate_sim_system(SimSystemConfig(n_samples=100_000, seed=9))
    assert np.max(np.abs(ds.y)) < 10.0


def test_instability_error_carries_step():
    cfg = SimSystemConfig(
        variant="linear-process-noise", sigma_k=1e7, sigma_e=10.0, n_samples=100, seed=0
    )
    with pytest.raises(InstabilityError) as err:
        generate_sim_system(cfg)
    assert err.value.step >= 0


def test_benchmark_splits_shapes_and_noise_free_test():
    train, val, test = benchmark_splits(seed=1)
    assert (len(train), len(val), len(test)) == BENCHMARK_SPLIT_SIZES
    assert train.name == "train" and test.name == "test"
    # splits use independent input realizations
    assert not np.array_equal(train.u[:3000], val.u)
    # the test record is noise-free: a sigma_e=0 regeneration matches exactly
    clean = generate_sim_system(
        SimSystemConfig(sigma_e=0.0, n_samples=BENCHMARK_SPLIT_SIZES[2], seed=[1, 2])
    )
    assert np.array_equal(test.y, clean.y)


def test_benchmark_splits_process_noise_variant():
    train, _val, test = benchmark_splits(seed=0, variant="nonlinear-process-noise", sigma_k=2.0)
    clean_cfg = SimSystemConfig(n_samples=BENCHMARK_SPLIT_SIZES[2], seed=[0, 2])
    assert np.array_equal(test.y, generate_sim_system(clean_cfg).y)
    assert not np.array_equal(train.y[:100], test.y[:100])


def test_config_validation():
    with pytest.raises(ValueError):
        SimSystemConfig(variant="bogus")
    with pytest.raises(ValueError):
        SimSystemConfig(sigma_e=-0.1)
    with pytest.raises(ValueError):
        SimSystemConfig(input_range=(2.0, -2.0))
    with pytest.raises(ValueError):
        SimSystemConfig(n_samples=0)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    ds = IoDataset(rng.normal(size=(40, 2)), rng.normal(size=(40, 1)))
    path = tmp_path / "data.csv"
    save_csv(ds, path)
    loaded = load_csv(path, n_u=2, n_y=1)
    assert np.array_equal(ds.u, loaded.u)
    assert np.array_equal(ds.y, loaded.y)


def test_csv_header_mismatch_names_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u1,z1\n0.0,1.0\n")
    with pytest.raises(CsvFormatError, match="y1"):
        load_csv(path, n_u=1, n_y=1)


def test_csv_bad_cell_reports_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u1,y1\n0.0,1.0\n0.5,oops\n")
    with pytest.raises(CsvFormatError, match=":3"):
        load_csv(path, n_u=1, n_y=1)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_csv_nonfinite_cell_reports_line(tmp_path, cell):
    path = tmp_path / "bad.csv"
    path.write_text(f"u1,y1\n0.0,1.0\n{cell},1.0\n")
    with pytest.raises(CsvFormatError, match=f"{path}:3: non-finite"):
        load_csv(path, n_u=1, n_y=1)


def test_csv_wrong_cell_count(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("u1,y1\n0.0,1.0,2.0\n")
    with pytest.raises(CsvFormatError, match="cells"):
        load_csv(path, n_u=1, n_y=1)


def test_csv_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(CsvFormatError, match="empty"):
        load_csv(path, n_u=1, n_y=1)


def test_slice_splits_example():
    ds = IoDataset(np.arange(4.0), np.arange(4.0) + 10)
    train, val, test = slice_splits(ds, 2, 1, 1)
    assert train.u[:, 0].tolist() == [0.0, 1.0]
    assert val.u[:, 0].tolist() == [2.0]
    assert test.u[:, 0].tolist() == [3.0]


def test_slice_splits_drop_warns():
    ds = IoDataset(np.arange(10.0), np.arange(10.0))
    with pytest.warns(UserWarning, match="dropping 2"):
        parts = slice_splits(ds, 5, 2, 1)
    assert [len(p) for p in parts] == [5, 2, 1]


def test_slice_splits_too_long_raises():
    ds = IoDataset(np.arange(4.0), np.arange(4.0))
    with pytest.raises(ValueError):
        slice_splits(ds, 3, 1, 1)


def test_dataset_rejects_nonfinite_and_mismatch():
    with pytest.raises(ValueError):
        IoDataset(np.array([0.0, np.nan]), np.zeros(2))
    with pytest.raises(ValueError):
        IoDataset(np.zeros(3), np.zeros(4))
