import csv
import hashlib
import tracemalloc

import numpy as np
import pytest
from conftest import sim_system_step

from subnet import data
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
    # numpy's uniform draw needs finite ends and a finite width
    for input_range in [(-1e308, 1e308), (0.0, float("inf"))]:
        with pytest.raises(ValueError, match="input_range"):
            SimSystemConfig(input_range=input_range)
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


def test_load_csv_memory_is_the_arrays(tmp_path):
    # 40000 rows of u and y are 0.61 MiB of float64: the parse holds one
    # flat buffer of them. A list of per-row float lists took 7.4 MiB
    rng = np.random.default_rng(4)
    ds = IoDataset(rng.normal(size=(40_000, 1)), rng.normal(size=(40_000, 1)))
    save_csv(ds, tmp_path / "data.csv")
    tracemalloc.start()
    try:
        loaded = load_csv(tmp_path / "data.csv", n_u=1, n_y=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(ds.u, loaded.u) and np.array_equal(ds.y, loaded.y)
    assert peak < 2 * 2**20


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


def _reference_generate(config):
    """The generator as a loop of `sim_system_step` on np.float64 scalars."""
    rng = np.random.default_rng(config.seed)
    n = config.n_samples
    u = rng.uniform(*config.input_range, size=n)
    e = rng.normal(0.0, config.sigma_e, size=n) if config.sigma_e > 0 else np.zeros(n)
    x = np.zeros(2)
    y = np.empty(n)
    for k in range(n):
        y[k] = x[0] + e[k]
        x = sim_system_step(x, u[k], e[k], config.variant, config.gain)
        if not np.all(np.abs(x) <= 1e6):
            raise InstabilityError(f"state diverged at step {k}", step=k)
    return IoDataset(u[:, None], y[:, None])


def _outcome(generate, config):
    """The record's bytes, or the error's type, message and step."""
    try:
        with np.errstate(all="ignore"):  # the numpy reference warns on overflow
            ds = generate(config)
    except (InstabilityError, ValueError) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "step", None)
    return ds.u.tobytes(), ds.y.tobytes()


CHUNK_SIZES = (1, data._CHUNK - 1, data._CHUNK, data._CHUNK + 1, 2500)


@pytest.mark.parametrize("variant", data.SIM_VARIANTS)
@pytest.mark.parametrize("sigma_k", [0.0, 2.0])
@pytest.mark.parametrize("sigma_e", [0.0, SIGMA_E_20DB, 1.0])
def test_generator_matches_numpy_scalar_reference(variant, sigma_k, sigma_e):
    for n_samples in CHUNK_SIZES:
        cfg = SimSystemConfig(variant=variant, sigma_k=sigma_k, sigma_e=sigma_e,
                              n_samples=n_samples, seed=[n_samples, 1])
        assert _outcome(generate_sim_system, cfg) == _outcome(_reference_generate, cfg)


@pytest.mark.parametrize(
    "kwargs, error",
    [
        # the state passes 1e6 at some step: both raise there
        (dict(variant="linear-process-noise", sigma_k=1e7, sigma_e=10.0, seed=0,
              n_samples=2500), "InstabilityError"),
        # at step 1 the noise overflows to inf: x1 turns NaN while |x2| is
        # inf, and a NaN state diverges at that step like an infinite one
        (dict(variant="nonlinear-process-noise", sigma_k=1.0, sigma_e=1e308, seed=19,
              n_samples=50), "InstabilityError"),
    ],
)
def test_generator_matches_reference_on_diverging_configs(kwargs, error):
    cfg = SimSystemConfig(**kwargs)
    outcome = _outcome(generate_sim_system, cfg)
    assert outcome[0] == error
    assert outcome == _outcome(_reference_generate, cfg)


# SHA-256 of the u and y bytes of the train, val and test records, in that
# order, as the numpy scalar generator made them; seeds 0-2 feed the slow
# acceptance gate and 3 and 5 the benchmark
BENCHMARK_SPLIT_DIGESTS = {
    0: "f2820ecf6eea0e6da495b3726dcf49a48c972db5ae2350dce9902c747a84498b",
    1: "88953b0b1565bba4483afee3c1ddfc76e2b8a28be6d4d3822e047d1e10870c83",
    2: "ca9fdfef1e24d6acad92eeb2261423374620d903fc0fabc006101c436fe6075a",
    3: "a659fc825ad77de5e20eb1be9b776c38be537daa6c53d4e6758b7c5f4003d7d0",
    5: "6ea605145bdf02034c9c3cb3d03fc0bf33dac34ddd7b3a46b86535f3e61aa3a1",
}


@pytest.mark.parametrize("seed", sorted(BENCHMARK_SPLIT_DIGESTS))
def test_benchmark_splits_golden_digest(seed):
    digest = hashlib.sha256()
    for ds in benchmark_splits(seed):
        digest.update(ds.u.tobytes())
        digest.update(ds.y.tobytes())
    assert digest.hexdigest() == BENCHMARK_SPLIT_DIGESTS[seed]


def test_benchmark_splits_use_the_whole_seed():
    # seeds 0 and 2**31 agree in their low 31 bits, and build_model already
    # tells them apart, so the data must differ too
    for a, b in zip(benchmark_splits(0), benchmark_splits(2**31)):
        assert not np.array_equal(a.u, b.u)
        assert not np.array_equal(a.y, b.y)


def _reference_save_csv(dataset, path):
    """`save_csv` as one `csv.writer` row per sample."""
    header = [f"u{i + 1}" for i in range(dataset.n_u)] + [
        f"y{i + 1}" for i in range(dataset.n_y)
    ]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row_u, row_y in zip(dataset.u, dataset.y):
            writer.writerow([f"{v:.17g}" for v in row_u] + [f"{v:.17g}" for v in row_y])


def test_save_csv_writes_csv_writer_bytes(tmp_path):
    rng = np.random.default_rng(11)
    n = 2 * data._CHUNK + 37  # two whole chunks and a part
    u = rng.normal(size=(n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    y = rng.normal(size=(n, 2))
    # extremes on both sides of the first chunk boundary
    u[data._CHUNK - 1] = [1e300, -0.0]
    y[data._CHUNK] = [5e-324, -1e300]
    ds = IoDataset(u, y)
    save_csv(ds, tmp_path / "fast.csv")
    _reference_save_csv(ds, tmp_path / "ref.csv")
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()
    loaded = load_csv(tmp_path / "fast.csv", n_u=2, n_y=2)
    assert loaded.u.tobytes() == u.tobytes() and loaded.y.tobytes() == y.tobytes()
