import csv
import json

import numpy as np
import pytest

from subnet.cli import main
from subnet.data import IoDataset, SimSystemConfig, generate_sim_system, load_csv, save_csv
from subnet.model import SubnetModel, build_model, load_model, save_model

MODEL_CFG = {"n_x": 2, "n_a": 2, "n_b": 2, "hidden_layers": 1, "hidden_width": 6}
TRAIN_CFG = {"horizon": 4, "batch_size": 64, "max_epochs": 2, "patience": 50}


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.fixture()
def small_csvs(tmp_path):
    paths = {}
    for name, n_samples, seed in (("train", 300, 0), ("val", 120, 1), ("test", 120, 2)):
        ds = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=n_samples, seed=seed))
        paths[name] = str(tmp_path / f"{name}.csv")
        save_csv(ds, paths[name])
    return paths


def train_cfg_dict(small_csvs, out, **overrides):
    cfg = {
        "data": {
            "train_csv": small_csvs["train"],
            "val_csv": small_csvs["val"],
            "test_csv": small_csvs["test"],
            "n_u": 1,
            "n_y": 1,
        },
        "model": dict(MODEL_CFG),
        "train": {**TRAIN_CFG, **overrides},
        "out": str(out),
    }
    return cfg


def test_generate_default_sizes_and_roundtrip(tmp_path):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, {"data": {"generator": {}}, "out": str(out)})
    assert main(["--config", cfg, "generate"]) == 0
    sizes = {}
    for name in ("train", "val", "test"):
        ds = load_csv(out / f"{name}.csv", n_u=1, n_y=1)
        sizes[name] = len(ds)
    assert sizes == {"train": 10_000, "val": 3_000, "test": 10_000}
    assert (out / "config.json").exists()

    # refuses to overwrite without --force
    assert main(["--config", cfg, "generate"]) == 4
    assert main(["--config", cfg, "--force", "generate"]) == 0


def test_generate_seed_changes_contents(tmp_path):
    outs = []
    for seed in (1, 2):
        out = tmp_path / f"run{seed}"
        cfg = write_config(tmp_path, {"data": {"generator": {}}, "out": str(out)},
                           name=f"cfg{seed}.json")
        assert main(["--config", cfg, "--seed", str(seed), "generate"]) == 0
        outs.append((out / "train.csv").read_bytes())
    assert outs[0] != outs[1]


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"data": {"generator": {}}, "banana": 1})
    assert main(["--config", cfg, "generate"]) == 2
    nested = write_config(tmp_path, {"train": {"warmup": 5}}, name="nested.json")
    assert main(["--config", nested, "generate"]) == 2


def test_missing_data_config_rejected(tmp_path):
    cfg = write_config(tmp_path, {"out": str(tmp_path / "o")})
    assert main(["--config", cfg, "train"]) == 2


def test_invalid_json_rejected(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["--config", str(path), "generate"]) == 2


def test_train_writes_outputs(tmp_path, small_csvs):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, out))
    assert main(["--config", cfg, "train"]) == 0
    for name in ("model.bin", "report.csv", "timing.csv", "config.json"):
        assert (out / name).exists()
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "epoch,train_loss,val_metric"
    assert len(report) == 1 + TRAIN_CFG["max_epochs"]
    model = load_model(out / "model.bin")
    assert model.n_x == MODEL_CFG["n_x"]


def test_train_max_epochs_zero_emits_initialized_checkpoint(tmp_path, small_csvs):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, out, max_epochs=0))
    assert main(["--config", cfg, "train"]) == 0
    model = load_model(out / "model.bin")
    assert np.all(np.isfinite(model.f_params.flat))
    report = (out / "report.csv").read_text().splitlines()
    assert len(report) == 1  # header only


def test_train_determinism_byte_identical_reports(tmp_path, small_csvs):
    reports = []
    for run in ("a", "b"):
        out = tmp_path / run
        cfg = write_config(tmp_path, train_cfg_dict(small_csvs, out, max_epochs=3),
                           name=f"cfg_{run}.json")
        assert main(["--config", cfg, "train"]) == 0
        reports.append((out / "report.csv").read_bytes())
    assert reports[0] == reports[1]


def test_train_divergence_exit_code(tmp_path, small_csvs):
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        train_cfg_dict(small_csvs, out, max_epochs=10, learning_rate=1e200),
    )
    assert main(["--config", cfg, "train"]) == 3


def test_eval_on_own_training_data(tmp_path, small_csvs, capsys):
    out = tmp_path / "run"
    cfg_dict = train_cfg_dict(small_csvs, out)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "train"]) == 0
    eval_out = tmp_path / "eval"
    cfg_dict["out"] = str(eval_out)
    cfg2 = write_config(tmp_path, cfg_dict, name="eval.json")
    assert main(
        ["--config", cfg2, "eval", "--checkpoint", str(out / "model.bin"), "--kmax", "3"]
    ) == 0
    text = capsys.readouterr().out
    assert "free-run NRMS" in text
    kstep = (eval_out / "kstep_nrms.csv").read_text().splitlines()
    assert len(kstep) == 1 + 4  # header + k = 0..3
    assert (eval_out / "simulation.csv").exists()
    assert (eval_out / "metrics.csv").exists()


def test_eval_kmax_zero_single_entry(tmp_path, small_csvs):
    out = tmp_path / "run"
    cfg_dict = train_cfg_dict(small_csvs, out)
    cfg_dict["train"]["max_epochs"] = 0
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "train"]) == 0
    assert main(
        ["--config", cfg, "--force", "eval", "--checkpoint", str(out / "model.bin"),
         "--kmax", "0"]
    ) == 0
    kstep = (out / "kstep_nrms.csv").read_text().splitlines()
    assert len(kstep) == 2


def test_eval_channel_mismatch(tmp_path, small_csvs, capsys):
    out = tmp_path / "run"
    cfg_dict = train_cfg_dict(small_csvs, out)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "train"]) == 0
    # two-input test set against a single-input checkpoint
    rng = np.random.default_rng(0)
    wide = IoDataset(rng.normal(size=(50, 2)), rng.normal(size=(50, 1)))
    wide_path = tmp_path / "wide.csv"
    save_csv(wide, wide_path)
    cfg_dict["data"] = {"test_csv": str(wide_path), "n_u": 2, "n_y": 1}
    cfg2 = write_config(tmp_path, cfg_dict, name="bad_eval.json")
    assert main(
        ["--config", cfg2, "eval", "--checkpoint", str(out / "model.bin")]
    ) == 2
    err = capsys.readouterr().err
    assert "n_u=1" in err and "n_u=2" in err


def test_eval_missing_checkpoint_is_io_error(tmp_path, small_csvs):
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    assert main(
        ["--config", cfg, "eval", "--checkpoint", str(tmp_path / "missing.bin")]
    ) == 4


def test_eval_computes_kstep_predictions_once(tmp_path, small_csvs, monkeypatch):
    out = tmp_path / "run"
    cfg_dict = train_cfg_dict(small_csvs, out, max_epochs=0)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "train"]) == 0
    calls = []
    original = SubnetModel.kstep_predictions

    def counted(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(SubnetModel, "kstep_predictions", counted)
    assert main(
        ["--config", cfg, "--force", "eval", "--checkpoint", str(out / "model.bin"),
         "--kmax", "3"]
    ) == 0
    assert len(calls) == 1
    rows = (out / "kstep.csv").read_text().splitlines()
    assert len(rows) == 1 + (120 - 2 - 3) * 4  # header + starts x (k = 0..3)


def test_eval_csvs_match_csv_writer_two_outputs(tmp_path):
    # rows run t-major, then k, then output channel; the lag's warm-up rows
    # of simulation.csv hold nan
    rng = np.random.default_rng(3)
    test = IoDataset(rng.normal(size=(40, 1)), rng.normal(size=(40, 2)))
    save_csv(test, tmp_path / "test.csv")
    save_model(
        build_model(2, 1, 2, 3, 2, hidden_layers=1, hidden_width=6, seed=4),
        tmp_path / "model.bin",
    )
    cfg = write_config(
        tmp_path, {"data": {"test_csv": str(tmp_path / "test.csv"), "n_u": 1, "n_y": 2}}
    )
    out = tmp_path / "eval"
    assert main(
        ["--config", cfg, "--out", str(out), "eval",
         "--checkpoint", str(tmp_path / "model.bin"), "--kmax", "3"]
    ) == 0

    model = load_model(tmp_path / "model.bin")
    sim = model.simulate(test)
    t_idx, preds = model.kstep_predictions(test, 3)
    with open(tmp_path / "simulation.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y_measured", "y_sim"])
        for t in range(len(test)):
            for ch in range(2):
                writer.writerow([t, f"{test.y[t, ch]:.17g}", f"{sim.y_sim[t, ch]:.17g}"])
    with open(tmp_path / "kstep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "y_hat", "y_measured"])
        for i, t in enumerate(t_idx):
            for k in range(4):
                for ch in range(2):
                    writer.writerow(
                        [t, k, f"{preds[i, k, ch]:.17g}", f"{test.y[t + k, ch]:.17g}"]
                    )
    for name in ("simulation.csv", "kstep.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes()
    assert (out / "simulation.csv").read_bytes().count(b",nan\r\n") == 3 * 2


def test_eval_bad_checkpoint_header_is_io_error(tmp_path, small_csvs, capsys):
    header = json.dumps({"blocks": []}).encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(b"SSENC\x00\x01" + len(header).to_bytes(4, "little") + header)
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    assert main(["--config", cfg, "eval", "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "is missing" in err and "Traceback" not in err


@pytest.mark.parametrize("cell", ["nan", "inf"])
def test_eval_nonfinite_csv_is_io_error(tmp_path, small_csvs, capsys, cell):
    out = tmp_path / "run"
    cfg_dict = train_cfg_dict(small_csvs, out, max_epochs=0)
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "train"]) == 0
    bad = tmp_path / "bad.csv"
    bad.write_text(f"u1,y1\n0.0,1.0\n{cell},1.0\n")
    cfg_dict["data"]["test_csv"] = str(bad)
    cfg2 = write_config(tmp_path, cfg_dict, name="bad_eval.json")
    assert main(
        ["--config", cfg2, "--force", "eval", "--checkpoint", str(out / "model.bin")]
    ) == 4
    assert f"{bad}:3: non-finite" in capsys.readouterr().err


def test_compare_single_variant(tmp_path, small_csvs):
    out = tmp_path / "cmp"
    cfg_dict = train_cfg_dict(small_csvs, out)
    cfg_dict["compare"] = {"variants": ["encoder-overlap"]}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "compare"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert lines[0] == "combination,nrms_test_pct"
    assert len(lines) == 2
    assert lines[1].startswith("Encoder init overlap,")


def test_compare_all_variants_budget_zero(tmp_path, small_csvs):
    out = tmp_path / "cmp"
    cfg_dict = train_cfg_dict(small_csvs, out, max_epochs=50)
    cfg_dict["compare"] = {"budget_s": 0.0}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "compare"]) == 0
    lines = (out / "compare.csv").read_text().strip().splitlines()
    assert len(lines) == 6  # header + five variants
    for variant in ("encoder-overlap", "parameter-init-OE"):
        assert (out / f"curve_{variant}.csv").exists()


def test_compare_unknown_variant(tmp_path, small_csvs):
    cfg_dict = train_cfg_dict(small_csvs, tmp_path / "cmp")
    cfg_dict["compare"] = {"variants": ["bogus"]}
    cfg = write_config(tmp_path, cfg_dict)
    assert main(["--config", cfg, "compare"]) == 2


def test_analyze_outputs(tmp_path):
    out = tmp_path / "an"
    cfg = write_config(
        tmp_path,
        {
            "out": str(out),
            "analyze": {
                "horizons": [4],
                "record_lengths": [128],
                "n_trials": 300,
                "max_horizon_sweep": 8,
            },
        },
    )
    assert main(["--config", cfg, "analyze"]) == 0
    g_lines = (out / "g_of_d.csv").read_text().strip().splitlines()
    assert len(g_lines) == 9  # header + T = 1..8
    mc_lines = (out / "overlap_mc.csv").read_text().strip().splitlines()
    assert len(mc_lines) == 2
    cells = mc_lines[1].split(",")
    assert float(cells[2]) <= float(cells[3])  # var(d=1) <= var(d=T)


def test_csv_split_config_path(tmp_path):
    full = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=400, seed=3))
    full_path = tmp_path / "full.csv"
    save_csv(full, full_path)
    out = tmp_path / "run"
    cfg = write_config(
        tmp_path,
        {
            "data": {
                "csv": str(full_path),
                "split": {"train_len": 250, "val_len": 100, "test_len": 50},
                "n_u": 1,
                "n_y": 1,
            },
            "model": dict(MODEL_CFG),
            "train": dict(TRAIN_CFG),
            "out": str(out),
        },
    )
    assert main(["--config", cfg, "train"]) == 0
    assert (out / "model.bin").exists()
