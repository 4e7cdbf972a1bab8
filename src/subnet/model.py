"""State-space encoder model: encoder, state transition, output map.

The model is the triple (f, h, psi):

  x[t|t]     = psi(u[t-n_b .. t-1], y[t-n_a .. t])        (encoder)
  y_hat[k]   = h(x[k])
  e_hat[k]   = y[k] - y_hat[k]                             (innovation)
  x[k+1]     = f(x[k], u[k], e_hat[k])                     (per noise structure)

Noise structures: "output-error" ignores the innovation, "linear-innovation"
adds K @ e_hat to the state update, "general-innovation" feeds e_hat through
the state-transition network itself.

All internal computation happens on normalized signals; `simulate` and
`kstep_predictions` accept raw-unit datasets and handle (de)normalization.
Encoder input ordering is fixed: u block first, then y block, both oldest
to newest (this convention is part of the checkpoint format).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import NumericError
from .loss import _CHUNK, _enc_windows, _take, _windows
from .nets import MlpParams, MlpSpec, init_xavier, mlp_forward

NOISE_STRUCTURES = ("output-error", "linear-innovation", "general-innovation")

# rows per k-step block: a block runs the encoder over its starts and keeps
# its (rows, width) activation buffers. The split is a bit-exactness rule of
# OpenBLAS 0.3.31, not a tuning knob. Blocks start at multiples of 1024 rows
# and a tail shorter than a block joins the block before it, so no block of
# a split record has under 1024 rows. Against one unblocked rollout, this
# rule kept every bit on all 346 row counts from 189 to 12958 in steps of
# 37, at n_y = 1 and k_max 40 and at n_y = 2 and k_max 0. Two things break
# it. Offsets do: balanced blocks (5 x 1990 rows of 9950) changed the last
# bits. Small blocks do: OpenBLAS runs a product with at most 1200 output
# elements in a small-matrix kernel with other bits, so a block of 300 rows
# or fewer changes f's (rows, 4) output, and one of 600 or fewer h's output
# at n_y = 2. A rule that keeps a tail of half a block or more therefore
# failed: with 512-row blocks on 29 of the 346 counts, first at 781 rows
# with a 269-row tail, and with 1024-row blocks on all 560 rows of the tail
# of 2608 starts at n_y = 2. The comparison holds at one BLAS thread: with
# two, OpenBLAS splits the rows of one unblocked 8222- or 9950-row product
# between the threads and its last bits change at the split, while the
# blocked predictions stay the same at 1-4 threads
KSTEP_BLOCK = 1024

CHECKPOINT_MAGIC = b"SSENC\x00"
CHECKPOINT_VERSION = 1


class CheckpointError(IOError):
    """Raised for unreadable, corrupt, or wrong-version model files."""


@dataclass
class NoiseStructure:
    tag: str = "output-error"
    gain: np.ndarray | None = None  # (n_x, n_y), linear-innovation only

    def __post_init__(self):
        if self.tag not in NOISE_STRUCTURES:
            raise ValueError(f"unknown noise structure {self.tag!r}")
        if (self.gain is not None) != (self.tag == "linear-innovation"):
            raise ValueError("gain matrix present iff tag is linear-innovation")
        if self.gain is not None:
            self.gain = np.asarray(self.gain, dtype=np.float64)


@dataclass
class Normalization:
    u_mean: np.ndarray
    u_std: np.ndarray
    y_mean: np.ndarray
    y_std: np.ndarray

    def __post_init__(self):
        for name in ("u_mean", "u_std", "y_mean", "y_std"):
            value = np.asarray(getattr(self, name), dtype=np.float64)
            setattr(self, name, value)
            std = name.endswith("std")
            if not np.isfinite(value).all() or (std and np.any(value <= 0)):
                kind = "finite and positive" if std else "finite"
                raise ValueError(f"norm.{name} must be {kind}, got {value.tolist()}")

    @classmethod
    def identity(cls, n_u, n_y):
        return cls(np.zeros(n_u), np.ones(n_u), np.zeros(n_y), np.ones(n_y))

    # a finite but extreme checkpoint normalization can overflow; these run
    # with the warnings silenced, as the rollout does, so that the inf or
    # NaN reaches the encoder's check or the NRMS instead of a warning

    def norm_u(self, u):
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(u, dtype=np.float64) - self.u_mean) / self.u_std

    def norm_y(self, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return (np.asarray(y, dtype=np.float64) - self.y_mean) / self.y_std

    def denorm_y(self, y):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.asarray(y, dtype=np.float64) * self.y_std + self.y_mean


@dataclass
class SimResult:
    y_sim: np.ndarray  # (N, n_y) in original units; first `skip` rows are NaN
    skip: int


@dataclass
class SubnetModel:
    n_x: int
    n_u: int
    n_y: int
    n_a: int
    n_b: int
    f_spec: MlpSpec
    h_spec: MlpSpec
    psi_spec: MlpSpec
    f_params: MlpParams
    h_params: MlpParams
    psi_params: MlpParams
    noise: NoiseStructure = field(default_factory=NoiseStructure)
    norm: Normalization | None = None

    def __post_init__(self):
        if self.norm is None:
            self.norm = Normalization.identity(self.n_u, self.n_y)
        f_in = self.n_x + self.n_u
        if self.noise.tag == "general-innovation":
            f_in += self.n_y
        expect = {
            "f": (self.f_spec.in_dim, f_in, self.f_spec.out_dim, self.n_x),
            "h": (self.h_spec.in_dim, self.n_x, self.h_spec.out_dim, self.n_y),
            "psi": (
                self.psi_spec.in_dim,
                self.encoder_in_dim,
                self.psi_spec.out_dim,
                self.n_x,
            ),
        }
        for name, (got_in, want_in, got_out, want_out) in expect.items():
            if got_in != want_in or got_out != want_out:
                raise ValueError(
                    f"{name} net dims ({got_in}->{got_out}) inconsistent with model "
                    f"(expected {want_in}->{want_out})"
                )
        if self.noise.gain is not None and self.noise.gain.shape != (self.n_x, self.n_y):
            raise ValueError("innovation gain must be (n_x, n_y)")

    # -- basic structure ----------------------------------------------------

    @property
    def lag(self):
        """Samples consumed by the encoder before the first prediction."""
        return max(self.n_a, self.n_b)

    @property
    def encoder_in_dim(self):
        return self.n_b * self.n_u + (self.n_a + 1) * self.n_y

    def param_blocks(self):
        """Trainable parameter blocks as {name: flat array}; views, not copies."""
        blocks = {
            "f": self.f_params.flat,
            "h": self.h_params.flat,
            "psi": self.psi_params.flat,
        }
        if self.noise.tag == "linear-innovation":
            blocks["K"] = self.noise.gain.reshape(-1)
        return blocks

    # -- forward computation (normalized signals) ----------------------------

    def encode(self, u_window, y_window):
        """(B, n_x) initial states from B normalized windows, (B, n_b, n_u)
        and (B, n_a+1, n_y), as `loss._enc_windows` gathers them.

        Raises `NumericError` when any state is non-finite.
        """
        u_window = np.asarray(u_window, dtype=np.float64)
        y_window = np.asarray(y_window, dtype=np.float64)
        if u_window.shape[1:] != (self.n_b, self.n_u):
            raise ValueError(
                f"encoder u windows must be (B, n_b={self.n_b}, n_u={self.n_u}), "
                f"got {u_window.shape}"
            )
        if y_window.shape[1:] != (self.n_a + 1, self.n_y):
            raise ValueError(
                f"encoder y windows must be (B, n_a+1={self.n_a + 1}, n_y={self.n_y}), "
                f"got {y_window.shape}"
            )
        b = u_window.shape[0]
        z = np.concatenate(
            [u_window.reshape(b, -1), y_window.reshape(b, -1)], axis=1
        )
        # psi runs to the end with its warnings silenced, as the rollout does
        with np.errstate(over="ignore", invalid="ignore"):
            x0 = mlp_forward(self.psi_spec, self.psi_params, z)
        if not np.isfinite(x0).all():
            raise NumericError("non-finite initial state from the encoder")
        return x0

    def rollout_batch(self, x0, u_roll, y_roll=None, cache=None):
        """Roll the model forward from x0 (B, n_x) over u_roll (B, T, n_u).

        Given the measured outputs y_roll (B, T, n_y), the rollout is
        teacher-forced: the innovations are y - y_hat. Without them it runs
        free, and the innovations are zero (their conditional expectation).
        Returns (y_hat (B,T,n_y), e_hat (B,T,n_y)). `x0` is never written.

        `cache`, when given, is a dict that receives what the loss adjoint
        reads, in (T, B, .) buffers: the states "x" (T, B, n_x), the inputs
        of f "f_in" (T-1, B, f_in), and one buffer per hidden layer of h
        "h_acts" (T, B, width) and of f "f_acts" (T-1, B, width). These
        buffers are views of the loss module's workspace (`loss._take`),
        shared by every cached call: they stay valid only until the next
        call with a cache, so read them before making one. A gradient
        overwrites them too: under output-error it forms h's deltas over
        "h_acts" and then f's deltas in the same buffers.

        Each step writes f's output straight into the next state's buffer
        (`mlp_forward`'s `out`) and builds f's input in place. h runs on
        each chunk of steps as soon as the chunk's last state exists, and
        writes the chunk's `y_hat` and innovations. A chunk is one step
        when a teacher-forced innovation (linear or general) feeds h's
        output into the next state, and otherwise `max(1, loss._CHUNK // B)`
        whole steps stacked as (steps, B, n). Each of h's 3-D matmuls makes
        one BLAS call per (B, n) step, the same call a per-step forward
        makes, so the outputs keep their bits; a 2-D (steps*B, n) product
        would not.

        Without a cache the rollout keeps only what the next chunk needs:
        the states go into a ring of one chunk of (B, n_x) buffers, f's
        input is one buffer, and each hidden layer has one buffer that f's
        step and h's chunk use in turn. A free run returns `e_hat` as a
        read-only broadcast of zeros.

        The loop runs to the end with overflow and invalid-value warnings
        silenced; afterwards one scan of y_hat raises `NumericError` at the
        first step k whose prediction is non-finite in any batch row, with
        `index=k`.
        """
        b, horizon = u_roll.shape[:2]
        y_hat = np.empty((b, horizon, self.n_y))
        y_steps = y_hat.transpose(1, 0, 2)
        tag = self.noise.tag
        teacher_forced = y_roll is not None
        if teacher_forced:
            e_hat = np.empty((b, horizon, self.n_y))
        else:
            e_hat = np.broadcast_to(0.0, (b, horizon, self.n_y))
        step = 1 if teacher_forced and tag != "output-error" else max(1, _CHUNK // b)
        if cache is None:
            # a ring of one chunk of states: a chunk starts at a multiple of
            # `step`, so its states are a prefix of the ring
            ring = min(step, horizon)
            xs = np.empty((ring, b, self.n_x))
            z = np.empty((b, self.f_spec.in_dim))
            # one buffer per hidden layer, which f's step and h's chunk use
            # in turn
            f_shape = (b, self.f_spec.hidden_width)
            h_shape = (ring, b, self.h_spec.hidden_width)
            f_size, h_size = int(np.prod(f_shape)), int(np.prod(h_shape))
            f_layers, h_layers = self.f_spec.hidden_layers, self.h_spec.hidden_layers
            hidden = [
                np.empty(max(f_size, h_size)) for _ in range(max(f_layers, h_layers))
            ]
            f_acts = [a[:f_size].reshape(f_shape) for a in hidden[:f_layers]]
            h_acts = [a[:h_size].reshape(h_shape) for a in hidden[:h_layers]]
        else:
            ring = horizon  # every state is kept for the adjoint
            xs = cache["x"] = _take("x", (horizon, b, self.n_x))
            cache["f_in"] = _take("f_in", (horizon - 1, b, self.f_spec.in_dim))
            h_acts = cache["h_acts"] = [
                _take(f"h_acts{i}", (horizon, b, self.h_spec.hidden_width))
                for i in range(self.h_spec.hidden_layers)
            ]
            cache["f_acts"] = [
                _take(f"f_acts{i}", (horizon - 1, b, self.f_spec.hidden_width))
                for i in range(self.f_spec.hidden_layers)
            ]
        xs[0] = x0  # state k sits at xs[k % ring]
        with np.errstate(over="ignore", invalid="ignore"):
            for k in range(horizon):
                if (k + 1) % step == 0 or k + 1 == horizon:
                    # the chunk of steps lo..k is complete: run h over it
                    lo = k - k % step
                    c = slice(lo % ring, lo % ring + k + 1 - lo)
                    mlp_forward(
                        self.h_spec, self.h_params, xs[c], [a[c] for a in h_acts],
                        y_steps[lo : k + 1],
                    )
                    if teacher_forced:
                        np.subtract(
                            y_roll[:, lo : k + 1], y_hat[:, lo : k + 1],
                            out=e_hat[:, lo : k + 1],
                        )
                if k + 1 == horizon:
                    break
                if cache is not None:
                    z = cache["f_in"][k]
                    f_acts = [a[k] for a in cache["f_acts"]]
                x = xs[k % ring]
                if tag == "general-innovation":
                    np.concatenate([x, u_roll[:, k], e_hat[:, k]], axis=1, out=z)
                else:
                    np.concatenate([x, u_roll[:, k]], axis=1, out=z)
                x = xs[(k + 1) % ring]
                mlp_forward(self.f_spec, self.f_params, z, f_acts, x)
                if tag == "linear-innovation":
                    x += e_hat[:, k] @ self.noise.gain.T
        finite = np.isfinite(y_hat).all(axis=(0, 2))
        if not finite.all():
            k = int(np.argmin(finite))
            raise NumericError(f"non-finite prediction at step {k}", index=k)
        return y_hat, e_hat

    # -- evaluation on raw-unit datasets -------------------------------------

    def _check_channels(self, dataset):
        if dataset.n_u != self.n_u or dataset.n_y != self.n_y:
            raise ValueError(
                f"dataset channels (n_u={dataset.n_u}, n_y={dataset.n_y}) do not "
                f"match model (n_u={self.n_u}, n_y={self.n_y})"
            )

    def simulate(self, dataset, init="encoder"):
        """Free-run simulation of the full record; output in original units.

        The state at t = `lag` comes from the encoder (`init="encoder"`), or
        is zero (`init="zero"`); any other `init` raises `ValueError`. The
        first `lag` samples are returned as NaN and must be excluded from any
        error metric. The whole-record teacher-forced prediction is the
        full-depth `kstep_predictions`.
        """
        if init not in ("encoder", "zero"):
            raise ValueError(f"init must be 'encoder' or 'zero', got {init!r}")
        self._check_channels(dataset)
        n = self.lag
        if len(dataset) <= n:
            raise ValueError(f"dataset length {len(dataset)} <= encoder lag {n}")
        u = self.norm.norm_u(dataset.u)
        if init == "zero":
            x = np.zeros((1, self.n_x))
        else:
            y = self.norm.norm_y(dataset.y)
            x = self.encode(*_enc_windows(u, y, [n], self.n_a, self.n_b))
        y_hat, _ = self.rollout_batch(x, u[None, n:])
        y_sim = np.full((len(dataset), self.n_y), np.nan)
        y_sim[n:] = self.norm.denorm_y(y_hat[0])
        return SimResult(y_sim=y_sim, skip=n)

    def kstep_predictions(self, dataset, k_max):
        """Teacher-forced k-step predictions from the encoder at every valid start.

        Returns (t_indices, preds) with preds[i, k] the prediction of
        y[t_indices[i] + k] made from data up to t_indices[i] (original units).
        At the full depth `k_max = len(dataset) - lag - 1` the one start is
        `lag`, and preds[0] is the whole-record teacher-forced prediction.

        The work runs over row blocks that start at multiples of
        `KSTEP_BLOCK` rows, and a last block shorter than that joins the
        block before it. Each block runs the encoder over its own starts
        and then the rollout, whose inputs are window views of the
        normalized record (row i, step k is u[t_indices[i] + k]), not
        copies. Under output-error the innovation feeds nothing back, so
        the rollout runs without y windows. The predictions are then
        denormalized in place, so memory stays at the (N, k_max+1, n_y)
        result plus one block. This rule keeps the predictions bit-identical
        to one rollout over all starts at one BLAS thread; smaller blocks,
        blocks at other offsets or a kept tail can change their last bits.
        A non-finite prediction raises `NumericError` at its first step over
        all blocks; a non-finite encoder state raises at once.
        """
        if k_max < 0:
            raise ValueError("k_max must be >= 0")
        self._check_channels(dataset)
        n = self.lag
        n_samples = len(dataset)
        if n_samples - n - k_max < 1:
            raise ValueError(
                f"dataset too short for k_max={k_max} with encoder lag {n}"
            )
        u = self.norm.norm_u(dataset.u)
        y = self.norm.norm_y(dataset.y)
        t_idx = np.arange(n, n_samples - k_max)
        b = len(t_idx)
        u_roll = _windows(u[n:], k_max + 1)
        y_roll = None if self.noise.tag == "output-error" else _windows(y[n:], k_max + 1)
        starts = list(range(0, b, KSTEP_BLOCK))
        if len(starts) > 1 and b - starts[-1] < KSTEP_BLOCK:
            starts.pop()
        y_hat = np.empty((b, k_max + 1, self.n_y))
        error = None
        for lo, hi in zip(starts, starts[1:] + [b]):
            x0 = self.encode(*_enc_windows(u, y, t_idx[lo:hi], self.n_a, self.n_b))
            try:
                y_hat[lo:hi] = self.rollout_batch(
                    x0, u_roll[lo:hi], None if y_roll is None else y_roll[lo:hi]
                )[0]
            except NumericError as exc:
                if error is None or exc.index < error.index:
                    error = exc
        if error is not None:
            raise error
        with np.errstate(over="ignore", invalid="ignore"):  # as `denorm_y`
            y_hat *= self.norm.y_std
            y_hat += self.norm.y_mean
        return t_idx, y_hat


def build_model(
    n_x,
    n_u,
    n_y,
    n_a,
    n_b,
    noise="output-error",
    hidden_layers=2,
    hidden_width=64,
    activation="tanh",
    bypass=True,
    seed=0,
    norm=None,
):
    """Construct a Xavier-initialized model (deterministic given seed)."""
    f_in = n_x + n_u + (n_y if noise == "general-innovation" else 0)
    enc_in = n_b * n_u + (n_a + 1) * n_y
    kwargs = dict(
        hidden_layers=hidden_layers,
        hidden_width=hidden_width,
        activation=activation,
        bypass=bypass,
    )
    f_spec = MlpSpec(f_in, n_x, **kwargs)
    h_spec = MlpSpec(n_x, n_y, **kwargs)
    psi_spec = MlpSpec(enc_in, n_x, **kwargs)
    rng = np.random.default_rng(seed)
    f_params = init_xavier(f_spec, rng)
    h_params = init_xavier(h_spec, rng)
    psi_params = init_xavier(psi_spec, rng)
    if noise == "general-innovation":
        # zero the e-hat input columns so the model starts as output-error;
        # random weights here close an e-hat feedback loop through h that is
        # unstable at init for some seeds (mirrors K = 0 below)
        f_params.view("w0")[:, -n_y:] = 0.0
        if f_spec.bypass:
            f_params.view("bypass")[:, -n_y:] = 0.0
    gain = np.zeros((n_x, n_y)) if noise == "linear-innovation" else None
    return SubnetModel(
        n_x, n_u, n_y, n_a, n_b,
        f_spec, h_spec, psi_spec,
        f_params, h_params, psi_params,
        NoiseStructure(noise, gain),
        norm,
    )


# -- checkpoint format -------------------------------------------------------
#
# magic (6B) | version (1B) | header length (4B LE) | JSON header | payload
# payload = concatenated little-endian float64 blocks in header["blocks"] order

_HEADER_FIELDS = {
    "n_x": int, "n_u": int, "n_y": int, "n_a": int, "n_b": int,
    "noise": str, "f_spec": dict, "h_spec": dict, "psi_spec": dict,
    "norm": dict, "blocks": list,
}


def _check_header(path, header):
    """Every required header field is present with its JSON type."""
    if not isinstance(header, dict):
        raise CheckpointError(f"{path}: header is not a JSON object")
    for key, kind in _HEADER_FIELDS.items():
        if key not in header:
            raise CheckpointError(f"{path}: header field {key!r} is missing")
        value = header[key]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise CheckpointError(
                f"{path}: header field {key!r} must be a JSON {kind.__name__}"
            )
    for entry in header["blocks"]:
        if not (
            isinstance(entry, list) and len(entry) == 2
            and isinstance(entry[0], str) and type(entry[1]) is int and entry[1] >= 0
        ):
            raise CheckpointError(
                f"{path}: header field 'blocks' has entry {entry!r}, not [name, size]"
            )


def save_model(model: SubnetModel, path):
    header = {
        "n_x": model.n_x,
        "n_u": model.n_u,
        "n_y": model.n_y,
        "n_a": model.n_a,
        "n_b": model.n_b,
        "noise": model.noise.tag,
        "f_spec": model.f_spec.to_dict(),
        "h_spec": model.h_spec.to_dict(),
        "psi_spec": model.psi_spec.to_dict(),
        "norm": {
            "u_mean": model.norm.u_mean.tolist(),
            "u_std": model.norm.u_std.tolist(),
            "y_mean": model.norm.y_mean.tolist(),
            "y_std": model.norm.y_std.tolist(),
        },
        "blocks": [
            [name, int(flat.size)] for name, flat in model.param_blocks().items()
        ],
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    blocks = model.param_blocks()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(bytes([CHECKPOINT_VERSION]))
        fh.write(len(header_bytes).to_bytes(4, "little"))
        fh.write(header_bytes)
        for name, _size in header["blocks"]:
            fh.write(np.ascontiguousarray(blocks[name], dtype="<f8").tobytes())


def load_model(path) -> SubnetModel:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(CHECKPOINT_MAGIC) + 5 or not raw.startswith(CHECKPOINT_MAGIC):
        raise CheckpointError(f"{path}: not a model checkpoint (bad magic)")
    version = raw[len(CHECKPOINT_MAGIC)]
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: unsupported checkpoint version {version} "
            f"(expected {CHECKPOINT_VERSION})"
        )
    pos = len(CHECKPOINT_MAGIC) + 1
    header_len = int.from_bytes(raw[pos : pos + 4], "little")
    pos += 4
    if pos + header_len > len(raw):
        raise CheckpointError(f"{path}: truncated header")
    try:
        header = json.loads(raw[pos : pos + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"{path}: corrupt header ({exc})") from exc
    pos += header_len
    _check_header(path, header)
    expected = sum(size for _name, size in header["blocks"]) * 8
    if len(raw) - pos != expected:
        raise CheckpointError(
            f"{path}: payload size {len(raw) - pos} != expected {expected}"
        )
    values = {}
    for name, size in header["blocks"]:
        values[name] = np.frombuffer(raw, dtype="<f8", count=size, offset=pos).astype(
            np.float64
        )
        pos += size * 8
    needed = ["f", "h", "psi"] + (["K"] if header["noise"] == "linear-innovation" else [])
    for name in needed:
        if name not in values:
            raise CheckpointError(f"{path}: header field 'blocks' lacks block {name!r}")
    try:
        norm = Normalization(**{k: np.array(v) for k, v in header["norm"].items()})
        f_spec = MlpSpec(**header["f_spec"])
        h_spec = MlpSpec(**header["h_spec"])
        psi_spec = MlpSpec(**header["psi_spec"])
        noise_tag = header["noise"]
        gain = (
            values["K"].reshape(header["n_x"], header["n_y"])
            if noise_tag == "linear-innovation"
            else None
        )
        return SubnetModel(
            header["n_x"], header["n_u"], header["n_y"], header["n_a"], header["n_b"],
            f_spec, h_spec, psi_spec,
            MlpParams(f_spec, values["f"]),
            MlpParams(h_spec, values["h"]),
            MlpParams(psi_spec, values["psi"]),
            NoiseStructure(noise_tag, gain),
            norm,
        )
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"{path}: inconsistent header ({exc})") from exc
