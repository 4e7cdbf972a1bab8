"""Command-line entry point.

Commands: generate, train, eval, compare, analyze. Every command is driven
by a JSON config (flags override), and writes all outputs plus a copy of
the effective config into the run directory so each run is reproducible
from that directory alone.

Exit codes: 0 success, 2 config error, 3 numeric divergence, 4 IO error.
A model or batch too large for memory is a config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, baselines, data
from .autodiff import NumericError
from .model import NOISE_STRUCTURES, CheckpointError, load_model, save_model
from .nets import ACTIVATIONS
from .optim import VAL_METRICS, TrainConfig, train, write_report_csv, write_timing_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


class ConfigError(ValueError):
    pass


# -- config schema (unknown keys rejected) ------------------------------------


class _Key(NamedTuple):
    """A config key's JSON type, and its least value or the strings it may
    take; for a list key, `item` is its items' type, and the bound holds
    for each item."""

    kind: type
    bound: object = None
    item: type | None = None
    nullable: bool = False  # JSON null means "no value"


_SPLIT_KEYS = ("train_len", "val_len", "test_len")
# every config key by its dotted path; a section is a prefix of its keys.
# `type(value) is int` also turns away bools, which Python counts as ints,
# and `float` stands for a finite JSON number, integer or not
_KEYS = {
    "seed": _Key(int, 0),
    "out": _Key(str),
    # a path: `open` would take an integer for a file descriptor
    **{f"data.{key}": _Key(str) for key in ("train_csv", "val_csv", "test_csv", "csv")},
    "data.n_u": _Key(int, 1),
    "data.n_y": _Key(int, 1),
    **{f"data.split.{key}": _Key(int, 0) for key in _SPLIT_KEYS},
    "data.generator.variant": _Key(str, data.SIM_VARIANTS),
    "data.generator.sigma_k": _Key(float, 0),
    "data.generator.sigma_e": _Key(float, 0),
    "data.generator.seed": _Key(int, 0),
    **{f"model.{key}": _Key(int, 1) for key in ("n_x", "hidden_width")},
    **{f"model.{key}": _Key(int, 0) for key in ("n_a", "n_b", "hidden_layers")},
    "model.noise": _Key(str, NOISE_STRUCTURES),
    "model.activation": _Key(str, ACTIVATIONS),
    "model.bypass": _Key(bool),
    **{f"train.{key}": _Key(int, 1) for key in ("horizon", "spacing", "batch_size")},
    **{f"train.{key}": _Key(int, 0) for key in ("max_epochs", "patience")},
    "train.learning_rate": _Key(float, 0),
    "train.val_metric": _Key(str, VAL_METRICS),
    # a budget of null is no budget
    "train.budget_s": _Key(float, 0, nullable=True),
    "eval.checkpoint": _Key(str),
    "eval.k_max": _Key(int, 0),
    "compare.variants": _Key(list, baselines.VARIANTS, item=str),
    "compare.budget_s": _Key(float, 0, nullable=True),
    # a variance needs two trials; a horizon and a record at least a sample
    "analyze.n_trials": _Key(int, 2),
    "analyze.max_horizon_sweep": _Key(int, 0),
    "analyze.horizons": _Key(list, 1, item=int),
    "analyze.record_lengths": _Key(list, 1, item=int),
}
_SECTIONS = {key[:i] for key in _KEYS for i, c in enumerate(key) if c == "."}
_JSON_NAMES = {int: "integer", float: "number", bool: "boolean", str: "string", list: "list"}


def _has_type(value, kind):
    if kind is float:
        # false for NaN, the infinities and an integer too large for a float
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def _check(where, value, key):
    if value is None and key.nullable:
        return
    if not _has_type(value, key.kind):
        raise ConfigError(
            f"config key {where} must be a JSON {_JSON_NAMES[key.kind]}, "
            f"got {json.dumps(value)}"
        )
    values = [value]
    if key.item is not None:
        if any(type(v) is not key.item for v in value):
            raise ConfigError(
                f"config key {where} must be a JSON list of {_JSON_NAMES[key.item]}s, "
                f"got {json.dumps(value)}"
            )
        values = value
    if isinstance(key.bound, tuple):
        if any(v not in key.bound for v in values):
            raise ConfigError(
                f"config key {where} must be one of {json.dumps(list(key.bound))}, "
                f"got {json.dumps(value)}"
            )
    elif key.bound is not None and any(v < key.bound for v in values):
        raise ConfigError(
            f"config key {where} must be >= {key.bound}, got {json.dumps(value)}"
        )


def _validate(node, path=""):
    if not isinstance(node, dict):
        raise ConfigError(f"config section {path or '<root>'} must be an object")
    for key, value in node.items():
        where = f"{path}.{key}" if path else key
        if "." in key or where not in _KEYS and where not in _SECTIONS:
            raise ConfigError(f"unknown config key: {where}")
        if where in _SECTIONS:
            _validate(value, where)
        else:
            _check(where, value, _KEYS[where])


def load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from exc
    _validate(cfg)
    return cfg


def _train_config(cfg, seed):
    # every model and train key is a TrainConfig field of the same name
    return TrainConfig(**cfg.get("model", {}), **cfg.get("train", {}), seed=seed)


def _load_datasets(cfg, seed, need=("train", "val", "test")):
    data_cfg = cfg.get("data", {})
    if "generator" in data_cfg:
        gen = data_cfg["generator"]
        splits = data.benchmark_splits(
            seed=gen.get("seed", seed),
            variant=gen.get("variant", "base"),
            sigma_k=gen.get("sigma_k", 0.0),
            sigma_e=gen.get("sigma_e", data.SIGMA_E_20DB),
        )
        return dict(zip(("train", "val", "test"), splits))
    n_u = data_cfg.get("n_u", 1)
    n_y = data_cfg.get("n_y", 1)
    if "csv" in data_cfg:
        full = data.load_csv(data_cfg["csv"], n_u, n_y)
        split = data_cfg.get("split")
        if split is None:
            raise ConfigError("data.csv requires data.split lengths")
        for key in _SPLIT_KEYS:
            if key not in split:
                raise ConfigError(f"data.csv requires data.split.{key}")
        # the library warns of dropped trailing samples; a user reads a note
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            parts = data.slice_splits(
                full, split["train_len"], split["val_len"], split["test_len"]
            )
        for warning in caught:
            print(f"note: {warning.message}", file=sys.stderr)
        return dict(zip(("train", "val", "test"), parts))
    out = {}
    for name in need:
        key = f"{name}_csv"
        if key not in data_cfg:
            raise ConfigError(f"data.{key} (or data.generator/data.csv) is required")
        out[name] = data.load_csv(data_cfg[key], n_u, n_y)
        out[name].name = name
    return out


def _prepare_out(args, cfg):
    out = Path(args.out or cfg.get("out", "runs/run"))
    out.mkdir(parents=True, exist_ok=True)
    effective = dict(cfg)
    effective["seed"] = _seed(args, cfg)
    with open(out / "config.json", "w") as fh:
        json.dump(effective, fh, indent=2, sort_keys=True)
    return out


def _seed(args, cfg):
    return args.seed if args.seed is not None else cfg.get("seed", 0)


# -- commands ------------------------------------------------------------------


def cmd_generate(args, cfg):
    out = _prepare_out(args, cfg)
    seed = _seed(args, cfg)
    datasets = _load_datasets(cfg, seed)
    paths = {name: out / f"{name}.csv" for name in datasets}
    if not args.force:
        existing = [str(p) for p in paths.values() if p.exists()]
        if existing:
            print(
                f"refusing to overwrite {', '.join(existing)} (use --force)",
                file=sys.stderr,
            )
            return EXIT_IO
    for name, ds in datasets.items():
        data.save_csv(ds, paths[name])
        print(f"wrote {paths[name]} ({len(ds)} samples)")
    return EXIT_OK


def cmd_train(args, cfg):
    out = _prepare_out(args, cfg)
    seed = _seed(args, cfg)
    datasets = _load_datasets(cfg, seed, need=("train", "val"))
    config = _train_config(cfg, seed)
    model, report = train(config, datasets["train"], datasets["val"])
    save_model(model, out / "model.bin")
    write_report_csv(report, out / "report.csv")
    write_timing_csv(report, out / "timing.csv")
    if report.epochs_run:
        print(
            f"best epoch {report.best_epoch}: "
            f"validation metric {report.val_metric[report.best_epoch]:.6g}"
        )
    else:
        print("no epochs run; wrote initialized model")
    print(f"wrote {out / 'model.bin'}")
    if report.diverged:
        print("training diverged; best checkpoint kept", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


# lines per CSV write: at 8192, writing kstep.csv took the eval command's
# traced peak to 6.9 MiB, above the k-step evaluation's 6.4 MiB
_CHUNK_ROWS = 2048


def _strings(fmt, values):
    """`fmt % v` for each value, as an object array that integer arrays index."""
    return np.array([fmt % v for v in np.asarray(values).tolist()], dtype=object)


def _write_rows(path, header, values, pieces):
    """Write a header line, then one line per entry of `values`.

    Line i joins strings[index(i)] over the (strings, index) pairs of
    `pieces`, where `index` maps an array of line numbers to indices into
    `strings`, and its one "%.17g" is filled from values[i]. The pieces
    are formatted once per distinct value, so a chunk of 2048 lines is one
    template filled by a single `%`, which no piece can upset: none holds
    another "%". Floats use "%.17g" and lines end in "\r\n", as
    `csv.writer` would write them; no field here needs quoting. The whole
    file is never held in memory as one string.
    """
    with open(path, "w", newline="") as fh:
        fh.write(header + "\r\n")
        for lo in range(0, len(values), _CHUNK_ROWS):
            lines = np.arange(lo, min(lo + _CHUNK_ROWS, len(values)))
            parts = [strings[index(lines)] for strings, index in pieces]
            template = "".join(sum(parts[1:], parts[0]).tolist())
            fh.write(template % tuple(values[lines].tolist()))


def cmd_eval(args, cfg):
    out = _prepare_out(args, cfg)
    seed = _seed(args, cfg)
    eval_cfg = cfg.get("eval", {})
    ckpt = args.checkpoint or eval_cfg.get("checkpoint")
    if ckpt is None:
        raise ConfigError("eval.checkpoint (or --checkpoint) is required")
    model = load_model(ckpt)
    datasets = _load_datasets(cfg, seed, need=("test",))
    test = datasets["test"]
    if test.n_u != model.n_u or test.n_y != model.n_y:
        raise ConfigError(
            f"checkpoint expects n_u={model.n_u}, n_y={model.n_y}; dataset has "
            f"n_u={test.n_u}, n_y={test.n_y}"
        )
    k_max = args.kmax if args.kmax is not None else eval_cfg.get("k_max", 0)
    sim = model.simulate(test)
    test_nrms = analysis.nrms(test.y, sim.y_sim, skip=sim.skip)
    print(f"free-run NRMS: {test_nrms:.6g} ({100 * test_nrms:.4g}%)")

    # line i of simulation.csv is output channel i % n_y at t = i // n_y
    n_y = test.n_y
    _write_rows(
        out / "simulation.csv",
        "t,y_measured,y_sim",
        sim.y_sim.ravel(),
        [
            (_strings("%d,", range(len(test))), lambda i: i // n_y),
            (_strings("%.17g,%%.17g\r\n", test.y.ravel()), lambda i: i),
        ],
    )

    # kstep.csv runs start-major, then k, then channel; the y_measured of
    # a line is test.y.ravel()[(t + k) * n_y + channel]
    profile = analysis.kstep_nrms(model, test, k_max)
    k1 = k_max + 1
    t_idx = profile.t_idx
    _write_rows(
        out / "kstep.csv",
        "t,k,y_hat,y_measured",
        profile.predictions.ravel(),
        [
            (_strings("%d,", t_idx), lambda i: i // (k1 * n_y)),
            (_strings("%d,%%.17g,", range(k1)), lambda i: i // n_y % k1),
            (
                _strings("%.17g\r\n", test.y.ravel()),
                lambda i: t_idx[i // (k1 * n_y)] * n_y + i % (k1 * n_y),
            ),
        ],
    )
    with open(out / "kstep_nrms.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "nrms"])
        for k, v in enumerate(profile.values):
            writer.writerow([k, f"{v:.17g}"])
    with open(out / "metrics.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["metric", "value"])
        writer.writerow(["free_run_nrms", f"{test_nrms:.17g}"])
        writer.writerow(["skip", sim.skip])
    print(f"wrote {out / 'simulation.csv'}, {out / 'kstep.csv'}")
    return EXIT_OK


def cmd_compare(args, cfg):
    out = _prepare_out(args, cfg)
    seed = _seed(args, cfg)
    compare_cfg = cfg.get("compare", {})
    variants = compare_cfg.get("variants", list(baselines.VARIANTS))
    datasets = _load_datasets(cfg, seed)
    config = _train_config(cfg, seed)
    if "budget_s" in compare_cfg:
        config.budget_s = compare_cfg["budget_s"]
    results = {}
    for variant in variants:
        model, report = baselines.run_variant(
            variant, config, datasets["train"], datasets["val"]
        )
        results[variant] = baselines.evaluate_variant(variant, model, datasets["test"])
        write_report_csv(report, out / f"curve_{variant}.csv")
        write_timing_csv(report, out / f"timing_{variant}.csv")
        print(f"{variant}: test NRMS {100 * results[variant]:.3f}%")
    rows = baselines.compare_report(results)
    baselines.write_compare_csv(rows, out / "compare.csv")
    print(f"wrote {out / 'compare.csv'}")
    return EXIT_OK


def cmd_analyze(args, cfg):
    out = _prepare_out(args, cfg)
    seed = _seed(args, cfg)
    an = cfg.get("analyze", {})
    horizons = an.get("horizons", [4, 8, 16])
    lengths = an.get("record_lengths", [256, 512, 1024])
    n_trials = an.get("n_trials", 2000)
    sweep_max = an.get("max_horizon_sweep", 64)
    if len(horizons) != len(lengths):
        raise ConfigError(
            "config keys analyze.horizons and analyze.record_lengths must have "
            f"the same length, got {len(horizons)} and {len(lengths)}"
        )

    with open(out / "g_of_d.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["horizon", "m_1", "m_T", "g_overlap", "g_no_overlap"])
        for horizon in range(1, sweep_max + 1):
            n_samples = 10 * horizon
            m_1, m_T = analysis.mc_start_counts(horizon, n_samples)
            writer.writerow(
                [
                    horizon, m_1, m_T,
                    f"{analysis.g_of_d(1, horizon, m_1):.17g}",
                    f"{analysis.g_of_d(horizon, horizon, m_T):.17g}",
                ]
            )

    with open(out / "overlap_mc.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["horizon", "n_samples", "var_d1", "var_dT", "mc_ratio", "analytic_ratio"]
        )
        for horizon, n_samples in zip(horizons, lengths):
            var1, varT = analysis.overlap_variance_mc(horizon, n_samples, n_trials, seed)
            m_1, m_T = analysis.mc_start_counts(horizon, n_samples)
            ratio = var1 / varT
            g_ratio = analysis.g_of_d(1, horizon, m_1) / analysis.g_of_d(
                horizon, horizon, m_T
            )
            writer.writerow(
                [
                    horizon, n_samples,
                    f"{var1:.17g}", f"{varT:.17g}",
                    f"{ratio:.6g}", f"{g_ratio:.6g}",
                ]
            )
            print(
                f"T={horizon} N={n_samples}: var(d=1)/var(d=T) = {ratio:.4f} "
                f"(analytic {g_ratio:.4f})"
            )
    print(f"wrote {out / 'g_of_d.csv'}, {out / 'overlap_mc.csv'}")
    return EXIT_OK


# -- argument parsing ----------------------------------------------------------


def _non_negative_int(text):
    """The type of `--seed` and `--kmax`: an integer >= 0, as the config keys
    `seed` and `eval.k_max` take."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subnet",
        description="Encoder-based nonlinear state-space system identification",
    )
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--seed", type=_non_negative_int, help="override config seed")
    parser.add_argument("--force", action="store_true", help="overwrite outputs")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("generate", help="write train/val/test dataset CSVs")
    sub.add_parser("train", help="train a model, write checkpoint and report")
    p_eval = sub.add_parser("eval", help="evaluate a checkpoint on test data")
    p_eval.add_argument("--checkpoint", help="model checkpoint path")
    p_eval.add_argument("--kmax", type=_non_negative_int, help="k-step profile depth")
    sub.add_parser("compare", help="run baseline comparison variants")
    sub.add_parser("analyze", help="overlap variance analysis (analytic + MC)")
    return parser


COMMANDS = {
    "generate": cmd_generate,
    "train": cmd_train,
    "eval": cmd_eval,
    "compare": cmd_compare,
    "analyze": cmd_analyze,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        return COMMANDS[args.command](args, cfg)
    except (data.CsvFormatError, CheckpointError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (NumericError, data.InstabilityError) as exc:
        print(f"numeric divergence: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ConfigError, ValueError, TypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:
        detail = f" ({exc})" if str(exc) else ""
        print(f"config error: the model or batch is too large for memory{detail}",
              file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
