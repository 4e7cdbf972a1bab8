"""The benchmark workloads, their output checks and their metrics.

Every workload is a closed loop: one caller runs an operation, waits for
it to finish, checks its outputs and starts the next one, until the run's
time is spent (and at least twice, so that two same-seed results can be
compared). An operation is one training epoch on the train workloads and
one `subnet eval` command on eval-cli.

The inputs come from `benchmark_splits(seed)`; the model configuration is
the default `TrainConfig`, whose initialisation seed stays 0 on every
workload seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import resource
import time
import traceback
from dataclasses import dataclass, field
from statistics import median

import numpy as np

from subnet import baselines, build_model, cli, data, loss, optim, save_model
from spans import LAYER_METRICS, Tracer, traced

EPOCHS = {"train-overlap": 2, "train-full-record": 1}
# the variant each workload trains, or whose initial-state convention
# (encoder or zero) its free-run test NRMS follows
VARIANT = {
    "train-overlap": "encoder-overlap",
    "train-full-record": "parameter-init-OE",
    "eval-cli": "encoder-overlap",
}
K_MAX = 40
SETUP_REPEATS = 5
MIN_JOBS = 2
GRAD_CHECK_EPS = 1e-7
GRAD_CHECK_TOL = 1e-6


@dataclass
class Job:
    """What one job (E epochs, or one eval command) produced."""

    op_s: list  # wall seconds of each operation that completed
    ok: list  # per attempted operation: passed its checks
    signature: tuple  # must repeat exactly in every job of the run
    test_nrms: float
    net: object


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    op_s: list = field(default_factory=list)
    traced_op_s: list = field(default_factory=list)
    test_nrms: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _tracing(tracer, on):
    return traced(tracer) if on else contextlib.nullcontext()


def prepare(workload, seed, work):
    """Generate the splits; eval-cli also writes its checkpoint, CSV and config."""
    splits = data.benchmark_splits(seed)
    if workload != "eval-cli":
        return splits, None
    train_ds, _, test_ds = splits
    cfg = optim.TrainConfig()
    net = build_model(
        cfg.n_x, train_ds.n_u, train_ds.n_y, cfg.n_a, cfg.n_b,
        seed=cfg.seed, norm=optim.fit_normalization(train_ds),
    )
    save_model(net, work / "model.bin")
    data.save_csv(test_ds, work / "test.csv")
    config = {"data": {"test_csv": str(work / "test.csv"), "n_u": 1, "n_y": 1}}
    (work / "config.json").write_text(json.dumps(config))
    return splits, net


def train_job(workload, inputs, work, tracer, trace):
    (train_ds, val_ds, test_ds), _ = inputs
    config = optim.TrainConfig(max_epochs=EPOCHS[workload])
    with _tracing(tracer, trace):
        if workload == "train-overlap":
            net, report = optim.train(config, train_ds, val_ds)
        else:
            net, report = baselines.run_variant(VARIANT[workload], config, train_ds, val_ds)
    test_nrms = baselines.evaluate_variant(VARIANT[workload], net, test_ds)
    ok = [
        bool(np.isfinite(tr) and np.isfinite(va))
        for tr, va in zip(report.train_loss, report.val_metric)
    ]
    if report.diverged or len(ok) != config.max_epochs or not np.isfinite(test_nrms):
        ok = [False] * config.max_epochs
    return Job(
        op_s=list(np.diff([0.0] + report.wallclock_s)),
        ok=ok,
        signature=(report.train_loss, report.val_metric, test_nrms),
        test_nrms=test_nrms,
        net=net,
    )


def _rows(path):
    with open(path) as fh:
        return sum(1 for _ in fh) - 1


def eval_job(workload, inputs, work, tracer, trace):
    (_, _, test_ds), net = inputs
    out = work / "eval"
    argv = [
        "--config", str(work / "config.json"), "--out", str(out),
        "eval", "--checkpoint", str(work / "model.bin"), "--kmax", str(K_MAX),
    ]
    printed = io.StringIO()
    with _tracing(tracer, trace), contextlib.redirect_stdout(printed):
        t0 = time.perf_counter()
        code = cli.main(argv)
        op_s = time.perf_counter() - t0
    if trace:
        tracer.count("cli.bytes_written", sum(p.stat().st_size for p in out.iterdir()))
    test_nrms = baselines.evaluate_variant(VARIANT[workload], net, test_ds)
    match = re.search(r"free-run NRMS: (\S+)", printed.getvalue())
    n_y = test_ds.n_y
    ok = (
        code == cli.EXIT_OK
        and match is not None
        and match.group(1) == f"{test_nrms:.6g}"
        and _rows(out / "simulation.csv") == len(test_ds) * n_y
        and _rows(out / "kstep.csv") == (len(test_ds) - net.lag - K_MAX) * (K_MAX + 1) * n_y
    )
    return Job([op_s], [ok], (code, test_nrms), test_nrms, net)


def gradient_error(workload, net, train_ds):
    """Relative error of the workload's loss gradient against a central
    finite difference along one fixed random direction."""
    u = net.norm.norm_u(train_ds.u)
    y = net.norm.norm_y(train_ds.y)
    horizon = optim.TrainConfig().horizon
    if workload == "train-overlap":
        starts = loss.valid_starts(len(u), horizon, net.n_a, net.n_b).starts[:64]
        params = net.param_blocks()

        def value(with_grad=False):
            return loss.encoder_loss(net, u, y, starts, horizon, with_grad=with_grad)

    else:
        u, y = u[:200], y[:200]
        params = {**net.param_blocks(), "x0": np.zeros(net.n_x)}

        def value(with_grad=False):
            return loss.full_prediction_loss(net, u, y, params["x0"], with_grad=with_grad)

    _, grads = value(with_grad=True)
    rng = np.random.default_rng(0)
    direction = {name: rng.standard_normal(grads[name].shape) for name in grads}
    exact = sum(float(grads[name] @ d) for name, d in direction.items())

    def shifted(step):
        saved = {name: params[name].copy() for name in direction}
        for name, d in direction.items():
            params[name] += step * d
        try:
            return value()
        finally:
            for name in direction:
                params[name][...] = saved[name]

    fd = (shifted(GRAD_CHECK_EPS) - shifted(-GRAD_CHECK_EPS)) / (2 * GRAD_CHECK_EPS)
    return abs(fd - exact) / abs(exact)


def run(workload, seed, seconds, trace, work, import_s):
    """Run `workload` for `seconds`; returns (result dict, problems)."""
    tracer = Tracer()
    setup_s = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with _tracing(tracer, trace):
            inputs = prepare(workload, seed, work)
        setup_s.append(time.perf_counter() - t0)

    job_fn = eval_job if workload == "eval-cli" else train_job
    ops_per_job = EPOCHS.get(workload, 1)
    tally = Tally()
    reference = None
    net = None
    start = time.perf_counter()
    job_s = 0.0
    jobs = 0
    # start a job only if one as long as the last still ends within the run
    while jobs < MIN_JOBS or time.perf_counter() - start + job_s <= seconds:
        # a traced run alternates traced and untraced jobs; the difference
        # of their operation times is the tracing overhead
        traced_job = trace and jobs % 2 == 0
        tracer.op = jobs
        jobs += 1
        job_start = time.perf_counter()
        tally.attempted += ops_per_job
        try:
            job = job_fn(workload, inputs, work, tracer, traced_job)
        except Exception:
            tally.failed += ops_per_job
            tally.problems.append(f"job {jobs} raised:\n{traceback.format_exc()}")
            continue
        finally:
            job_s = time.perf_counter() - job_start
        if reference is None:
            reference = job.signature
        ok = job.ok
        if job.signature != reference:
            tally.problems.append(f"job {jobs}: results differ from job 1 of this seed")
            ok = [False] * len(ok)
        if not all(ok):
            tally.problems.append(f"job {jobs}: {ok.count(False)} operation(s) failed checks")
        tally.failed += ok.count(False)
        (tally.traced_op_s if traced_job else tally.op_s).extend(job.op_s)
        tally.test_nrms.append(job.test_nrms)
        net = job.net
    if net is None:
        raise RuntimeError("no job completed:\n" + "\n".join(tally.problems))

    correct = tally.failed == 0
    if correct and workload != "eval-cli":
        err = gradient_error(workload, net, inputs[0][0])
        if not err < GRAD_CHECK_TOL:
            correct = False
            tally.problems.append(f"loss gradient off by {err:.3g} (relative)")

    if trace:
        n_ops = len(tally.traced_op_s)
        metrics = {}
        for m in LAYER_METRICS:
            value = tracer.summarize(m, n_ops)
            if value is None and workload in m.workloads:
                correct = False
                tally.problems.append(f"span {m.source} has no samples")
            metrics[m.name] = (0.0 if value is None else value, m.unit)
        metrics["trace.overhead_s"] = (median(tally.traced_op_s) - median(tally.op_s), "s")
        metrics["analysis.test_nrms"] = (median(tally.test_nrms), "ratio")
    else:
        metrics = {
            "setup_s": (import_s + median(setup_s), "s"),
            "op_s": (median(tally.op_s), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, tally.problems
