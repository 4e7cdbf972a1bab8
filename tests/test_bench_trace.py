"""The benchmark's trace still sees every span it lists.

`bench/spans.py` patches package callables where their callers look them
up, and a traced benchmark run counts as incorrect when a span listed for
its workload has no samples. This runs a small version of each workload's
operation under the trace and checks the same thing, so that a change to
how the package calls these names shows up here first.
"""

import json
import sys
from pathlib import Path

import pytest

from subnet import baselines, cli, optim
from subnet.data import SimSystemConfig, generate_sim_system, save_csv
from subnet.model import build_model, save_model

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
# leave no bytecode cache in the benchmark's directory
_write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
import spans  # noqa: E402

sys.dont_write_bytecode = _write_bytecode

from test_baselines import TINY, small_splits  # noqa: E402

# set-up spans, and the counter that a workload records itself
NOT_TRACED_HERE = {"data.benchmark_splits", "cli.bytes_written"}


def _run_train_overlap(tmp_path):
    train_ds, val_ds, _test = small_splits()
    optim.train(optim.TrainConfig(**TINY), train_ds, val_ds)


def _run_train_full_record(tmp_path):
    train_ds, val_ds, _test = small_splits()
    baselines.run_variant("parameter-init-OE", optim.TrainConfig(**TINY), train_ds, val_ds)


def _run_eval_cli(tmp_path):
    test_csv = tmp_path / "test.csv"
    save_csv(generate_sim_system(SimSystemConfig(sigma_e=0.05, n_samples=80, seed=2)),
             test_csv)
    save_model(build_model(2, 1, 1, 2, 2, hidden_layers=1, hidden_width=6),
               tmp_path / "model.bin")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"data": {"test_csv": str(test_csv)}}))
    code = cli.main(["--config", str(config), "--out", str(tmp_path / "eval"), "eval",
                     "--checkpoint", str(tmp_path / "model.bin"), "--kmax", "3"])
    assert code == cli.EXIT_OK


OPERATIONS = {
    "train-overlap": _run_train_overlap,
    "train-full-record": _run_train_full_record,
    "eval-cli": _run_eval_cli,
}


@pytest.mark.parametrize("workload", OPERATIONS)
def test_trace_sees_every_listed_span(workload, tmp_path):
    tracer = spans.Tracer()
    tracer.op = 0
    with spans.traced(tracer):
        OPERATIONS[workload](tmp_path)
    missing = [
        m.source
        for m in spans.LAYER_METRICS
        if workload in m.workloads
        and m.source not in NOT_TRACED_HERE
        and tracer.summarize(m, 1) is None
    ]
    assert missing == []
