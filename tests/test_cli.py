import csv
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import subnet.loss
from subnet.baselines import VARIANTS
from subnet.cli import _KEYS, main
from subnet.data import (
    SIM_VARIANTS, IoDataset, SimSystemConfig, generate_sim_system, load_csv, save_csv,
)
from subnet.model import NOISE_STRUCTURES, SubnetModel, build_model, load_model, save_model
from subnet.nets import ACTIVATIONS
from subnet.optim import VAL_METRICS, TrainConfig, fit_normalization

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


def test_generate_nan_state_is_numeric_divergence(tmp_path, capsys):
    # the noise overflows to inf and the state turns NaN: a divergence
    # (exit 3), not a record turned away as non-finite (exit 2)
    cfg = write_config(tmp_path, {
        "seed": 6,
        "data": {"generator": {"variant": "nonlinear-process-noise", "sigma_k": 1.0,
                               "sigma_e": 1e308}},
        "out": str(tmp_path / "run"),
    })
    assert main(["--config", cfg, "generate"]) == 3
    err = capsys.readouterr().err
    assert "numeric divergence: state diverged at step" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "train.csv").exists()


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
    # the divergence is located without any overflow warning on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", cfg, "train"]) == 3
    # the diverging run still writes the best epoch's parameters; no epoch
    # completed here, so they are the initial ones
    assert (out / "report.csv").read_text().splitlines() == ["epoch,train_loss,val_metric"]
    saved = load_model(out / "model.bin")
    train_ds = load_csv(small_csvs["train"], n_u=1, n_y=1)
    fresh = build_model(MODEL_CFG["n_x"], 1, 1, MODEL_CFG["n_a"], MODEL_CFG["n_b"],
                        hidden_layers=MODEL_CFG["hidden_layers"],
                        hidden_width=MODEL_CFG["hidden_width"], seed=0,
                        norm=fit_normalization(train_ds))
    for name, flat in fresh.param_blocks().items():
        assert saved.param_blocks()[name].tobytes() == flat.tobytes()


def test_train_divergence_names_section(tmp_path, small_csvs, capsys):
    cfg = write_config(
        tmp_path,
        train_cfg_dict(small_csvs, tmp_path / "run", max_epochs=10, learning_rate=1e200),
    )
    assert main(["--config", cfg, "train"]) == 3
    err = capsys.readouterr().err
    assert re.fullmatch(
        r"training diverged: numeric divergence in section starting at \d+ "
        r"\(step \d+\); best checkpoint kept\n",
        err,
    )


def test_train_without_finite_validation_says_so(tmp_path, small_csvs, capsys):
    # the default model of seed 6 free-runs to inf over 1500 validation
    # samples, and a learning rate of 0 keeps it so in every epoch
    val = tmp_path / "val_long.csv"
    save_csv(generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=1500, seed=1)),
             val)
    cfg_dict = train_cfg_dict(small_csvs, tmp_path / "run", learning_rate=0.0)
    cfg_dict["data"]["val_csv"] = str(val)
    cfg_dict["model"] = {"n_a": 2, "n_b": 2}
    cfg_dict["seed"] = 6
    assert main(["--config", write_config(tmp_path, cfg_dict), "train"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "no epoch had a finite validation metric; wrote initialized model"
    )
    report = (tmp_path / "run" / "report.csv").read_text().splitlines()
    assert [line.split(",")[2] for line in report[1:]] == ["inf", "inf"]


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


def test_eval_kstep_csv_spans_write_chunks(tmp_path):
    # 250 samples at k_max 40 give 208 starts, 8528 kstep.csv lines: more
    # than one 8192-line write chunk
    test = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=250, seed=5))
    save_csv(test, tmp_path / "test.csv")
    save_model(
        build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=6, seed=4),
        tmp_path / "model.bin",
    )
    cfg = write_config(
        tmp_path, {"data": {"test_csv": str(tmp_path / "test.csv"), "n_u": 1, "n_y": 1}}
    )
    out = tmp_path / "eval"
    assert main(
        ["--config", cfg, "--out", str(out), "eval",
         "--checkpoint", str(tmp_path / "model.bin"), "--kmax", "40"]
    ) == 0

    t_idx, preds = load_model(tmp_path / "model.bin").kstep_predictions(test, 40)
    assert len(t_idx) * 41 > 8192
    with open(tmp_path / "kstep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "k", "y_hat", "y_measured"])
        for i, t in enumerate(t_idx):
            for k in range(41):
                writer.writerow([t, k, f"{preds[i, k, 0]:.17g}", f"{test.y[t + k, 0]:.17g}"])
    assert (out / "kstep.csv").read_bytes() == (tmp_path / "kstep.csv").read_bytes()


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("eval", "k_max", 1.5, "eval.k_max must be a JSON integer, got 1.5"),
        ("train", "horizon", 1.5, "train.horizon must be a JSON integer, got 1.5"),
        ("train", "spacing", 1.5, "train.spacing must be a JSON integer, got 1.5"),
        ("train", "batch_size", True, "train.batch_size must be a JSON integer, got true"),
        ("model", "bypass", "no", 'model.bypass must be a JSON boolean, got "no"'),
        ("model", "n_a", -3, "model.n_a must be >= 0, got -3"),
        ("model", "n_b", -1, "model.n_b must be >= 0, got -1"),
        ("eval", "checkpoint", 5, "eval.checkpoint must be a JSON string, got 5"),
        ("eval", "skip", 0, "unknown config key: eval.skip"),
        (None, "seed", 1.5, "seed must be a JSON integer, got 1.5"),
        (None, "seed", -1, "seed must be >= 0, got -1"),
        ("data", "generator.seed", 1.5,
         "data.generator.seed must be a JSON integer, got 1.5"),
        ("data", "generator.n_samples", 50, "unknown config key: data.generator.n_samples"),
        ("data", "split.train_len", 1.5, "data.split.train_len must be a JSON integer, got 1.5"),
        ("data", "split.val_len", -60, "data.split.val_len must be >= 0, got -60"),
        ("analyze", "n_trials", 1.5, "analyze.n_trials must be a JSON integer, got 1.5"),
        ("analyze", "n_trials", 1, "analyze.n_trials must be >= 2, got 1"),
        ("analyze", "max_horizon_sweep", "x",
         'analyze.max_horizon_sweep must be a JSON integer, got "x"'),
        ("analyze", "horizons", 4, "analyze.horizons must be a JSON list, got 4"),
        ("analyze", "horizons", [4, 8.5],
         "analyze.horizons must be a JSON list of integers, got [4, 8.5]"),
        ("analyze", "horizons", [0], "analyze.horizons must be >= 1, got [0]"),
        ("analyze", "record_lengths", [256, True],
         "analyze.record_lengths must be a JSON list of integers, got [256, true]"),
        ("data", "n_u", 1.5, "data.n_u must be a JSON integer, got 1.5"),
        ("data", "n_y", 0, "data.n_y must be >= 1, got 0"),
        ("data", "generator.sigma_e", "x",
         'data.generator.sigma_e must be a JSON number, got "x"'),
        ("data", "generator.sigma_e", True,
         "data.generator.sigma_e must be a JSON number, got true"),
        ("data", "generator.sigma_e", 10**400,
         "data.generator.sigma_e must be a JSON number, got 1000"),
        ("data", "generator.sigma_k", -1, "data.generator.sigma_k must be >= 0, got -1"),
        ("data", "generator.sigma_k", float("inf"),
         "data.generator.sigma_k must be a JSON number, got Infinity"),
        ("train", "learning_rate", "x", 'train.learning_rate must be a JSON number, got "x"'),
        ("train", "learning_rate", float("nan"),
         "train.learning_rate must be a JSON number, got NaN"),
        ("train", "budget_s", True, "train.budget_s must be a JSON number, got true"),
        ("compare", "budget_s", True, "compare.budget_s must be a JSON number, got true"),
        ("compare", "variants", "encoder-overlap",
         'compare.variants must be a JSON list, got "encoder-overlap"'),
        ("compare", "variants", ["encoder-overlap", 3],
         'compare.variants must be a JSON list of strings, got ["encoder-overlap", 3]'),
        ("model", "n_x", 0, "model.n_x must be >= 1, got 0"),
        ("model", "hidden_layers", -1, "model.hidden_layers must be >= 0, got -1"),
        ("train", "horizon", 0, "train.horizon must be >= 1, got 0"),
        ("train", "spacing", 0, "train.spacing must be >= 1, got 0"),
        ("train", "batch_size", 0, "train.batch_size must be >= 1, got 0"),
        ("train", "max_epochs", -1, "train.max_epochs must be >= 0, got -1"),
        ("train", "patience", -1, "train.patience must be >= 0, got -1"),
        ("train", "learning_rate", -1.0, "train.learning_rate must be >= 0, got -1.0"),
        (None, "out", 5, "out must be a JSON string, got 5"),
        ("model", "hidden_width", 0, "model.hidden_width must be >= 1, got 0"),
        ("train", "budget_s", -1, "train.budget_s must be >= 0, got -1"),
        ("compare", "budget_s", -0.5, "compare.budget_s must be >= 0, got -0.5"),
        ("model", "noise", 5, "model.noise must be a JSON string, got 5"),
        ("model", "noise", "colored",
         f'model.noise must be one of {json.dumps(NOISE_STRUCTURES)}, got "colored"'),
        ("model", "activation", None, "model.activation must be a JSON string, got null"),
        ("model", "activation", "elu",
         f'model.activation must be one of {json.dumps(ACTIVATIONS)}, got "elu"'),
        ("train", "val_metric", True, "train.val_metric must be a JSON string, got true"),
        ("train", "val_metric", "x",
         'train.val_metric must be one of ["sim-nrms", "encoder-loss"], got "x"'),
        ("data", "generator.variant", 2,
         "data.generator.variant must be a JSON string, got 2"),
        ("data", "generator.variant", "chaotic",
         f'data.generator.variant must be one of {json.dumps(SIM_VARIANTS)}, got "chaotic"'),
        ("compare", "variants", ["encoder-overlap", "bogus"],
         f"compare.variants must be one of {json.dumps(VARIANTS)}, "
         'got ["encoder-overlap", "bogus"]'),
    ],
)
def test_bad_config_value_names_key(tmp_path, small_csvs, capsys, section, key, value,
                                    message):
    # `key` may be a dotted path below `section`; a `section` of None is the root
    cfg_dict = train_cfg_dict(small_csvs, tmp_path / "run")
    node = cfg_dict if section is None else cfg_dict.setdefault(section, {})
    *parents, last = key.split(".")
    for parent in parents:
        node = node.setdefault(parent, {})
    node[last] = value
    cfg = write_config(tmp_path, cfg_dict)
    command = ["train"]
    if section == "eval":
        save_model(build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=6),
                   tmp_path / "model.bin")
        command = ["eval", "--checkpoint", str(tmp_path / "model.bin")]
    assert main(["--config", cfg, *command]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


@pytest.mark.parametrize(
    "command, flag, value, message",
    [
        ("generate", "--seed", "-1", "argument --seed: must be >= 0, got -1"),
        ("generate", "--seed", "x", "argument --seed: must be an integer, got 'x'"),
        ("eval", "--kmax", "-1", "argument --kmax: must be >= 0, got -1"),
        ("eval", "--kmax", "1.5", "argument --kmax: must be an integer, got '1.5'"),
    ],
)
def test_bad_flag_value_exits_2_before_writing(tmp_path, small_csvs, capsys, command,
                                               flag, value, message):
    out = tmp_path / "run"
    if command == "generate":
        cfg = write_config(tmp_path, {"data": {"generator": {}}, "out": str(out)})
        argv = ["--config", cfg, flag, value, "generate"]
    else:
        save_model(build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=6),
                   tmp_path / "model.bin")
        cfg = write_config(tmp_path, train_cfg_dict(small_csvs, out))
        argv = ["--config", cfg, "eval", "--checkpoint", str(tmp_path / "model.bin"),
                flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_number_keys_take_integers_and_a_null_budget(tmp_path, small_csvs):
    # a JSON number needs no fraction, and a null budget is no budget
    cfg_dict = train_cfg_dict(small_csvs, tmp_path / "run", learning_rate=1, budget_s=None,
                              max_epochs=0)
    assert main(["--config", write_config(tmp_path, cfg_dict), "train"]) == 0


def test_out_of_memory_is_config_error(tmp_path, small_csvs, capsys, monkeypatch):
    # a model or batch too large for memory fails in a workspace allocation;
    # it exits 2 with a message, not a traceback
    def no_memory(role, shape):
        raise MemoryError(f"Unable to allocate the {role} buffer {shape}")

    monkeypatch.setattr(subnet.loss, "_take", no_memory)
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    assert main(["--config", cfg, "train"]) == 2
    err = capsys.readouterr().err
    assert "config error: the model or batch is too large for memory" in err
    assert "Unable to allocate" in err and "Traceback" not in err


def test_partial_split_names_missing_length(tmp_path, capsys):
    save_csv(generate_sim_system(SimSystemConfig(n_samples=150, seed=0)), tmp_path / "full.csv")
    cfg = write_config(tmp_path, {
        "data": {"csv": str(tmp_path / "full.csv"),
                 "split": {"train_len": 60, "test_len": 50}},
        "out": str(tmp_path / "run"),
    })
    assert main(["--config", cfg, "generate"]) == 2
    err = capsys.readouterr().err
    assert "data.csv requires data.split.val_len" in err and "Traceback" not in err
    assert not (tmp_path / "run" / "train.csv").exists()


def test_dropped_samples_are_a_plain_note(tmp_path, capsys):
    # the library's UserWarning reaches the user as one note line, with no
    # warning category and no source path or code line
    save_csv(generate_sim_system(SimSystemConfig(n_samples=300, seed=0)), tmp_path / "full.csv")
    cfg = write_config(tmp_path, {
        "data": {"csv": str(tmp_path / "full.csv"),
                 "split": {"train_len": 150, "val_len": 80, "test_len": 50}},
        "model": dict(MODEL_CFG),
        "train": dict(TRAIN_CFG),
        "out": str(tmp_path / "run"),
    })
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["--config", cfg, "train"]) == 0
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.splitlines() == ["note: dropping 20 trailing samples"]


def test_analyze_lists_of_unequal_length_exit_2(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "analyze": {"horizons": [2, 3], "record_lengths": [20], "n_trials": 3,
                    "max_horizon_sweep": 2},
        "out": str(tmp_path / "run"),
    })
    assert main(["--config", cfg, "analyze"]) == 2
    assert "analyze.horizons and analyze.record_lengths must have the same length" in (
        capsys.readouterr().err
    )


def test_eval_bad_checkpoint_header_is_io_error(tmp_path, small_csvs, capsys):
    header = json.dumps({"blocks": []}).encode()
    path = tmp_path / "bad.bin"
    path.write_bytes(b"SSENC\x00\x01" + len(header).to_bytes(4, "little") + header)
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    assert main(["--config", cfg, "eval", "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "is missing" in err and "Traceback" not in err


def test_eval_infinite_norm_std_is_io_error(tmp_path, small_csvs, capsys):
    # save_model writes the inf as JSON's Infinity, which the header parser
    # reads back as inf; an inf std would scale every prediction to inf
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=3)
    model.norm.y_std = np.array([np.inf])
    path = tmp_path / "model.bin"
    save_model(model, path)
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    assert main(["--config", cfg, "eval", "--checkpoint", str(path)]) == 4
    err = capsys.readouterr().err
    assert "io error" in err and "norm.y_std must be finite" in err
    assert not (tmp_path / "run" / "metrics.csv").exists()


@pytest.mark.parametrize(
    "field, value, code",
    [("u_mean", 1.7e308, 3), ("y_std", 1e308, 0), ("y_mean", 1.7e308, 0)],
)
def test_eval_extreme_normalization_exits_without_warning(tmp_path, small_csvs, capsys,
                                                          field, value, code):
    # a finite normalization whose (de)normalization overflows: an inf input
    # makes a NaN encoder state (exit 3), an inf prediction an inf NRMS
    # (exit 0); neither lets a RuntimeWarning escape `main`
    model = build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=3)
    model.psi_params.flat[:] = 0.0  # a zero state from every finite window
    model.h_params.view("b1")[:] = 1e307  # every normalized prediction
    setattr(model.norm, field, np.array([value]))
    model.norm.u_std = np.array([0.5])
    save_model(model, tmp_path / "model.bin")
    cfg = write_config(tmp_path, train_cfg_dict(small_csvs, tmp_path / "run"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--config", cfg, "eval", "--checkpoint", str(tmp_path / "model.bin"),
                     "--kmax", "2"]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 0:
        assert "free_run_nrms,inf" in (tmp_path / "run" / "metrics.csv").read_text()
    else:
        assert "non-finite initial state from the encoder" in err


def test_train_on_values_too_large_to_normalize_names_the_channel(tmp_path, capsys):
    # a 400-sample record scaled by 1e200 overflows the std of each channel:
    # a data error naming the channel, not a model with inf stds and a
    # report.csv of 0,0,inf
    ds = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=400, seed=0))
    csv_path = tmp_path / "huge.csv"
    save_csv(IoDataset(1e200 * ds.u, 1e200 * ds.y), csv_path)
    paths = {name: str(csv_path) for name in ("train", "val", "test")}
    cfg = write_config(tmp_path, train_cfg_dict(paths, tmp_path / "run"))
    assert main(["--config", cfg, "train"]) == 2
    err = capsys.readouterr().err
    assert "u channel(s) [0]: mean or std overflows float64" in err
    assert not (tmp_path / "run" / "report.csv").exists()


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


def test_compare_divergence_exit_code(tmp_path, small_csvs, capsys):
    # both variants diverge; every output is still written, then exit 3
    out = tmp_path / "cmp"
    cfg_dict = train_cfg_dict(small_csvs, out, max_epochs=10, learning_rate=1e200)
    variants = ["encoder-overlap", "parameter-init-overlap"]
    cfg_dict["compare"] = {"variants": variants}
    assert main(["--config", write_config(tmp_path, cfg_dict), "compare"]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for variant, line in zip(variants, err):
        assert re.fullmatch(
            rf"{variant}: training diverged: numeric divergence in section "
            r"starting at \d+ \(step \d+\)",
            line,
        )
        assert (out / f"curve_{variant}.csv").exists()
    assert len((out / "compare.csv").read_text().splitlines()) == 3


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


# a config value of any JSON kind; numbers are small, so that a drawn size
# or epoch count keeps an example to milliseconds
_ANY_VALUE = st.one_of(
    st.integers(-2, 3),
    st.floats(),
    st.text(max_size=4),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-2, 3), max_size=2),
)
# values each key accepts, drawn as often as any value, so that training
# also runs on odd but valid configs
_VALID_VALUES = {
    "model.n_x": st.integers(1, 3),
    "model.n_a": st.integers(0, 3),
    "model.n_b": st.integers(0, 3),
    "model.hidden_layers": st.integers(0, 2),
    "model.hidden_width": st.integers(1, 4),
    "model.noise": st.sampled_from(NOISE_STRUCTURES),
    "model.activation": st.sampled_from(ACTIVATIONS),
    "model.bypass": st.booleans(),
    "train.horizon": st.integers(1, 4),
    "train.batch_size": st.integers(1, 20),
    "train.spacing": st.integers(1, 3),
    "train.learning_rate": st.floats(),
    "train.max_epochs": st.integers(0, 3),
    "train.patience": st.integers(0, 2),
    "train.val_metric": st.sampled_from(VAL_METRICS),
    "train.budget_s": st.one_of(st.floats(), st.none()),
    "eval.k_max": st.integers(0, 3),
    "eval.checkpoint": st.text(max_size=4),
    "seed": st.integers(0, 3),
    # data.generator is left out: training on its 10000-sample split takes
    # seconds per example; test_generator_config_fuzz_exits_with_a_code
    # covers its keys
    "data.csv": st.text(max_size=4),
    "data.n_u": st.just(1),
    "data.n_y": st.just(1),
    "data.split.train_len": st.integers(0, 80),
    "data.split.val_len": st.integers(0, 60),
    "data.split.test_len": st.integers(0, 60),
    "analyze.n_trials": st.integers(2, 5),
    "analyze.max_horizon_sweep": st.integers(0, 3),
    "analyze.horizons": st.lists(st.integers(1, 4), max_size=2),
    "analyze.record_lengths": st.lists(st.integers(1, 12), max_size=2),
    # read by `compare` only, which the fuzz does not run, but checked by
    # every command when the config is read
    "compare.variants": st.lists(st.sampled_from(VARIANTS), max_size=2),
    "compare.budget_s": st.one_of(st.floats(), st.none()),
}


@st.composite
def _config_values(draw, valid=_VALID_VALUES):
    keys = draw(st.lists(st.sampled_from(sorted(valid)), max_size=3, unique=True))
    return {key: draw(st.one_of(valid[key], _ANY_VALUE)) for key in keys}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    ds = generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=150, seed=0))
    save_csv(ds, path / "full.csv")
    save_model(build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=3), path / "model.bin")
    return path


@settings(max_examples=100, deadline=None)
@given(values=_config_values())
def test_config_fuzz_exits_with_a_code(fuzz_dir, values):
    cfg = {
        "data": {"csv": str(fuzz_dir / "full.csv"),
                 "split": {"train_len": 60, "val_len": 40, "test_len": 50}},
        "model": {"n_x": 2, "n_a": 2, "n_b": 2, "hidden_layers": 1, "hidden_width": 3},
        "train": {"horizon": 3, "batch_size": 16, "max_epochs": 2, "patience": 2},
        "eval": {},
        "compare": {},
        "analyze": {"n_trials": 3, "max_horizon_sweep": 2, "horizons": [2],
                    "record_lengths": [8]},
        "out": str(fuzz_dir / "out"),
    }
    for where, value in values.items():
        *parents, key = where.split(".")
        node = cfg
        for parent in parents:
            node = node[parent]
        node[key] = value
    path = write_config(fuzz_dir, cfg)
    assert main(["--config", path, "train"]) in (0, 2, 3, 4)
    flags = [] if "eval.checkpoint" in values else ["--checkpoint", str(fuzz_dir / "model.bin")]
    assert main(["--config", path, "eval", *flags]) in (0, 2, 3, 4)
    assert main(["--config", path, "analyze"]) in (0, 2, 3, 4)


# the generator's keys; `generate` alone runs on them, as training on the
# generated 10000-sample split would take seconds per example
_GENERATOR_VALUES = {
    "variant": st.sampled_from(SIM_VARIANTS),
    "sigma_k": st.floats(min_value=0.0),
    "sigma_e": st.floats(min_value=0.0),
    "seed": st.integers(0, 3),
}


@settings(max_examples=50, deadline=None)
@given(values=_config_values(_GENERATOR_VALUES))
def test_generator_config_fuzz_exits_with_a_code(fuzz_dir, values):
    cfg = {"data": {"generator": values}, "out": str(fuzz_dir / "generated")}
    path = write_config(fuzz_dir, cfg)
    assert main(["--config", path, "--force", "generate"]) in (0, 2, 3, 4)


def test_key_table_matches_fuzz_and_train_config():
    # the fuzz draws every config key but the paths of the CSV trio and of
    # `out`, and `_train_config` passes each model and train key on by name
    fuzzed = set(_VALID_VALUES) | {f"data.generator.{key}" for key in _GENERATOR_VALUES}
    unfuzzed = {"out", "data.train_csv", "data.val_csv", "data.test_csv"}
    assert set(_KEYS) == fuzzed | unfuzzed
    fields = {field.name for field in dataclasses.fields(TrainConfig)}
    for key in _KEYS:
        section, _, name = key.partition(".")
        if section in ("model", "train"):
            assert name in fields, key


@pytest.fixture(scope="module")
def eval_fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("eval_fuzz")
    save_csv(generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=40, seed=2)),
             path / "test.csv")
    save_model(build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=3), path / "model.bin")
    return path


def _eval_exit_code(path, checkpoint, test_csv):
    cfg = write_config(path, {"data": {"test_csv": str(test_csv)}, "out": str(path / "out")})
    return main(["--config", cfg, "eval", "--checkpoint", str(checkpoint), "--kmax", "2"])


# a byte edit of a checkpoint: a flipped byte, a cut, or bytes spliced in
_BYTE_EDITS = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 2000), st.integers(1, 255)),
    st.tuples(st.just("cut"), st.integers(0, 2000)),
    st.tuples(st.just("splice"), st.integers(0, 2000), st.binary(max_size=12)),
)
# header fields a JSON edit may set, nested ones written with a dot
_HEADER_PATHS = [
    "n_x", "n_u", "n_y", "n_a", "n_b", "noise", "blocks", "norm", "f_spec",
    "h_spec.in_dim", "h_spec.hidden_layers", "f_spec.hidden_width",
    "psi_spec.activation", "f_spec.bypass", "norm.y_std", "norm.u_mean",
]


@settings(max_examples=150, deadline=None)
# psi's first matmul overflowed on the normalized input -1.26e308, and its
# RuntimeWarning escaped `main`
@example(byte_edits=[], header_edit=("norm.u_mean", 1.26030249479682e+308))
@given(
    byte_edits=st.lists(_BYTE_EDITS, max_size=3),
    header_edit=st.one_of(
        st.none(),
        st.tuples(st.sampled_from(_HEADER_PATHS),
                  st.one_of(_ANY_VALUE, st.integers(-1, 40), st.sampled_from(NOISE_STRUCTURES))),
    ),
)
def test_checkpoint_fuzz_exits_with_a_code(eval_fuzz_dir, byte_edits, header_edit):
    raw = bytearray((eval_fuzz_dir / "model.bin").read_bytes())
    if header_edit is not None:
        # rewrite the header with one field changed and its length updated
        size = int.from_bytes(raw[7:11], "little")
        header = json.loads(raw[11 : 11 + size])
        *parents, key = header_edit[0].split(".")
        node = header
        for parent in parents:
            node = node[parent]
        node[key] = header_edit[1]
        text = json.dumps(header).encode()
        raw[7:] = len(text).to_bytes(4, "little") + text + raw[11 + size :]
    for kind, pos, *arg in byte_edits:
        pos %= len(raw) + 1
        if kind == "flip" and pos < len(raw):
            raw[pos] ^= arg[0]
        elif kind == "cut":
            del raw[pos:]
        elif kind == "splice":
            raw[pos:pos] = arg[0]
    checkpoint = eval_fuzz_dir / "fuzzed.bin"
    checkpoint.write_bytes(bytes(raw))
    assert _eval_exit_code(eval_fuzz_dir, checkpoint, eval_fuzz_dir / "test.csv") in (0, 2, 3, 4)


# a CSV cell: mostly a number, sometimes text that is almost one
_CSV_CELLS = st.one_of(
    st.floats(-1e3, 1e3).map(repr),
    st.floats().map(repr),
    st.integers(-5, 5).map(str),
    st.text(alphabet="0123456789.-+eEinfa \t\"'", max_size=5),
)


@settings(max_examples=100, deadline=None)
@given(
    header=st.sampled_from(["u1,y1", " u1 , y1 ", "y1,u1", "u1,y1,y2", "u1", ""]),
    rows=st.one_of(
        st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=3), max_size=14),
        # two numbers a row, so that some examples run the whole eval
        st.lists(st.lists(st.floats(-1e3, 1e3).map(repr), min_size=2, max_size=2),
                 max_size=14),
    ),
    newline=st.sampled_from(["\n", "\r\n"]),
)
def test_csv_fuzz_exits_with_a_code(eval_fuzz_dir, header, rows, newline):
    test_csv = eval_fuzz_dir / "fuzzed.csv"
    test_csv.write_text(newline.join([header] + [",".join(row) for row in rows]))
    assert _eval_exit_code(eval_fuzz_dir, eval_fuzz_dir / "model.bin", test_csv) in (0, 2, 3, 4)
