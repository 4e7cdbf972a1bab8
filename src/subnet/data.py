"""Datasets: synthetic two-state benchmark system, CSV IO, splits.

The synthetic system is a two-state nonlinear map with cross-coupled
saturating terms, driven by i.i.d. uniform input and Gaussian measurement
noise on the first state. Process-noise variants inject the same noise
sample into the state update, either linearly (K * e) or multiplied by the
state (K * x * e). All generation is deterministic given the seed (numpy
PCG64 generator, reproducible across platforms).

The generator draws the input and noise records with numpy, then runs the
state recursion on Python floats, which costs no numpy call per sample (a
step on numpy float64 scalars makes about ten). It works a chunk of
`_CHUNK` samples at a time: `tolist()` hands over the chunk's inputs and
noise, and its outputs go into the preallocated `y` in one assignment.
Lists of a chunk, not of the whole record, keep the peak RSS where the
numpy scalar loop had it. The records keep their bits: the map uses only
`+`, `*` and `/`, in the same order, and these round the same on Python
floats as on numpy float64 scalars. A state with an entry that is NaN or
over 1e6 in magnitude has diverged. `save_csv` works in the same chunks,
filling one string template per chunk of rows.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

SIM_VARIANTS = ("base", "linear-process-noise", "nonlinear-process-noise")

# process-noise direction, scaled to unit norm and sigma_k
K0 = np.array([1.0, -0.9])

# samples per chunk of the generator and CSV writer loops; see the module
# docstring for why the loops are chunked
_CHUNK = 1024


class CsvFormatError(ValueError):
    """Raised for malformed dataset CSV files; message carries line numbers."""


class InstabilityError(RuntimeError):
    def __init__(self, msg, step):
        super().__init__(msg)
        self.step = step


@dataclass
class IoDataset:
    u: np.ndarray  # (N, n_u)
    y: np.ndarray  # (N, n_y)
    name: str = ""

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.float64)
        if self.u.ndim == 1:
            self.u = self.u[:, None]
        if self.y.ndim == 1:
            self.y = self.y[:, None]
        if self.u.ndim != 2 or self.y.ndim != 2:
            raise ValueError("u and y must be 1-D or (N, channels) arrays")
        if self.u.shape[0] != self.y.shape[0]:
            raise ValueError(
                f"u and y row counts differ: {self.u.shape[0]} vs {self.y.shape[0]}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.y))):
            raise ValueError("dataset contains non-finite values")

    def __len__(self):
        return self.u.shape[0]

    @property
    def n_u(self):
        return self.u.shape[1]

    @property
    def n_y(self):
        return self.y.shape[1]


@dataclass
class SimSystemConfig:
    variant: str = "base"
    sigma_k: float = 0.0
    sigma_e: float = 0.0
    input_range: tuple[float, float] = (-2.0, 2.0)
    n_samples: int = 10_000
    seed: int = 0

    def __post_init__(self):
        if self.variant not in SIM_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.sigma_k < 0 or self.sigma_e < 0:
            raise ValueError("noise scales must be >= 0")
        a, b = self.input_range
        # a finite width b - a, which the uniform draw needs, has finite ends
        if not (b > a and math.isfinite(b - a)):
            raise ValueError(f"input_range needs b > a and a finite b - a, got {(a, b)}")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")

    @property
    def gain(self):
        return self.sigma_k * K0 / np.linalg.norm(K0)


def _step(x1, x2, u, e, variant, gain):
    """The state update on scalars: returns the next (x1, x2)."""
    nx1 = x1 / (1.2 + x2 * x2) + 0.4 * x2
    nx2 = x2 / (1.2 + x1 * x1) + 0.4 * x1 + u
    if variant == "linear-process-noise":
        nx1 += gain[0] * e
        nx2 += gain[1] * e
    elif variant == "nonlinear-process-noise":
        nx1 += gain[0] * x1 * e
        nx2 += gain[1] * x2 * e
    return nx1, nx2


def generate_sim_system(config: SimSystemConfig) -> IoDataset:
    """Simulate from x0 = 0 with u ~ U(a, b) and e ~ N(0, sigma_e^2) i.i.d."""
    rng = np.random.default_rng(config.seed)
    a, b = config.input_range
    n = config.n_samples
    u = rng.uniform(a, b, size=n)
    e = rng.normal(0.0, config.sigma_e, size=n) if config.sigma_e > 0 else np.zeros(n)
    variant = config.variant
    gain = tuple(config.gain.tolist())
    x1 = x2 = 0.0
    y = np.empty(n)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        ys = []
        for k, u_k, e_k in zip(
            range(start, stop), u[start:stop].tolist(), e[start:stop].tolist()
        ):
            ys.append(x1 + e_k)
            x1, x2 = _step(x1, x2, u_k, e_k, variant, gain)
            # written so that a NaN entry, which compares false, diverges
            if not (abs(x1) <= 1e6 and abs(x2) <= 1e6):
                raise InstabilityError(f"state diverged at step {k}", step=k)
        y[start:stop] = ys
    return IoDataset(u[:, None], y[:, None], name=f"sim-{config.variant}")


# 20 dB output SNR for the synthetic system (checked empirically in tests)
SIGMA_E_20DB = 0.082

BENCHMARK_SPLIT_SIZES = (10_000, 3_000, 10_000)


def benchmark_splits(seed=0, variant="base", sigma_k=0.0, sigma_e=SIGMA_E_20DB):
    """Train/validation/test records with independent input and noise draws.

    Train and validation carry measurement noise; the test record is
    noise-free so simulation error measures model quality only. For the
    process-noise variants the (state) noise is likewise absent from the
    test record.
    """
    sizes = BENCHMARK_SPLIT_SIZES
    names = ("train", "val", "test")
    out = []
    for i, (n_samples, name) in enumerate(zip(sizes, names)):
        cfg = SimSystemConfig(
            variant=variant if name != "test" else "base",
            sigma_k=sigma_k if name != "test" else 0.0,
            sigma_e=sigma_e if name != "test" else 0.0,
            n_samples=n_samples,
            seed=[int(seed), i],  # distinct reproducible child seeds
        )
        ds = generate_sim_system(cfg)
        ds.name = name
        out.append(ds)
    return tuple(out)


def save_csv(dataset: IoDataset, path):
    """Write a `u1,...,y1,...` header and one `%.17g` row per sample.

    The bytes are those that `csv.writer` writes for the same rows: ","
    between cells, "\\r\\n" after each row and no quoting, which no
    formatted float needs. Each chunk of rows is filled from one template.
    """
    header = [f"u{i + 1}" for i in range(dataset.n_u)] + [
        f"y{i + 1}" for i in range(dataset.n_y)
    ]
    row = ",".join(["%.17g"] * len(header)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(dataset), _CHUNK):
            block = np.concatenate(
                (dataset.u[start:start + _CHUNK], dataset.y[start:start + _CHUNK]),
                axis=1,
            )
            fh.write((row * len(block)) % tuple(block.ravel().tolist()))


def load_csv(path, n_u, n_y) -> IoDataset:
    expected = [f"u{i + 1}" for i in range(n_u)] + [f"y{i + 1}" for i in range(n_y)]
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvFormatError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if header != expected:
            missing = [c for c in expected if c not in header]
            raise CsvFormatError(
                f"{path}: header mismatch, expected {expected}, got {header}"
                + (f" (missing {missing})" if missing else "")
            )
        # one flat array of the cells, filled as they are parsed: a list of
        # per-row float lists took 7.4 MiB at 40000 rows, against the
        # arrays' 0.6 MiB
        values = np.fromiter(_cells(path, reader, len(expected)), dtype=np.float64)
    if not values.size:
        raise CsvFormatError(f"{path}: no data rows")
    arr = values.reshape(-1, len(expected))
    return IoDataset(arr[:, :n_u], arr[:, n_u:])


def _cells(path, reader, width):
    """Every cell of `reader`'s rows as a float, row by row; a bad row
    raises `CsvFormatError` naming its line."""
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != width:
            raise CsvFormatError(f"{path}:{lineno}: expected {width} cells, got {len(row)}")
        try:
            values = [float(v) for v in row]
        except ValueError as exc:
            raise CsvFormatError(f"{path}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise CsvFormatError(f"{path}:{lineno}: non-finite value in {row}")
        yield from values


def slice_splits(dataset: IoDataset, train_len, val_len, test_len):
    """Contiguous, non-overlapping, in-order train/val/test slices."""
    total = train_len + val_len + test_len
    if total > len(dataset):
        raise ValueError(
            f"split lengths sum to {total} > dataset length {len(dataset)}"
        )
    if total < len(dataset):
        warnings.warn(
            f"dropping {len(dataset) - total} trailing samples", stacklevel=2
        )
    bounds = np.cumsum([0, train_len, val_len, test_len])
    names = ("train", "val", "test")
    return tuple(
        IoDataset(dataset.u[a:b], dataset.y[a:b], name=name)
        for a, b, name in zip(bounds[:-1], bounds[1:], names)
    )
