"""Datasets and the random augmentation of flat feature vectors.

Synthetic class-incremental streams come from seeded Gaussian blobs whose
means sit on a sphere; real data loads from a small CSV format
(`label,f0,f1,...`, optionally gzipped). Every dataset's inputs lie in
`VALUE_RANGE`, [0, 1]: the Gaussian sample is mapped into it, CSV loading
rejects values outside it, and attacks and augmentation clamp to it.
Augmentation applies one op per example, drawn from `AUGMENT_OPS` at the
fixed magnitude `AUGMENT_MAGNITUDE`.
"""
from __future__ import annotations

import csv
import gzip
import io
import zlib
from dataclasses import dataclass, replace

import numpy as np

from .errors import ArgumentError, ParseError
from .seeding import derive_rng

Array = np.ndarray

VALUE_RANGE = (0.0, 1.0)   # the input domain of every dataset
AUGMENT_OPS = ("gaussian-noise", "scale")
AUGMENT_MAGNITUDE = 0.5


@dataclass
class Dataset:
    inputs: Array                       # (n, d) float64
    labels: Array                       # (n,) int64
    n_classes: int

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.inputs.ndim != 2:
            raise ArgumentError("inputs must be a 2-D (n, d) array")
        if self.labels.shape != (self.inputs.shape[0],):
            raise ArgumentError("labels must align with inputs")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= self.n_classes):
            raise ArgumentError("labels outside the declared class count")
        lo, hi = VALUE_RANGE
        if self.inputs.size and not (lo - 1e-12 <= self.inputs.min()    # NaN fails too
                                     and self.inputs.max() <= hi + 1e-12):
            raise ArgumentError(f"inputs outside the value range {VALUE_RANGE}")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    def subset(self, idx) -> "Dataset":
        return replace(self, inputs=self.inputs[idx], labels=self.labels[idx])

    def class_indices(self, c: int) -> Array:
        return np.nonzero(self.labels == c)[0]


def gen_gaussian_tasks(n_classes: int, d: int, separation: float,
                       n_per_class: int, seed: int = 0) -> Dataset:
    """Seeded Gaussian blobs with means on a sphere of radius `separation`.

    Unit isotropic noise is added per example and the whole sample is
    affinely mapped per dimension into [0, 1].
    """
    if n_classes < 2 or d < 2:
        raise ArgumentError("need at least 2 classes and 2 dimensions")
    if n_per_class < 1:
        raise ArgumentError("n_per_class must be positive")
    rng = derive_rng(seed, purpose="data")
    if n_classes <= d:
        # orthonormal directions (seeded rotation) keep every pair of means
        # at distance separation * sqrt(2); falls back to random directions
        # when there are more classes than dimensions
        q, r = np.linalg.qr(rng.normal(size=(d, d)).T)
        dirs = (q * np.sign(np.diag(r))).T[:n_classes]
    else:
        dirs = rng.normal(size=(n_classes, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = separation * dirs
    xs, ys = [], []
    for c in range(n_classes):
        xs.append(means[c] + rng.normal(size=(n_per_class, d)))
        ys.append(np.full(n_per_class, c, dtype=np.int64))
    inputs = np.concatenate(xs)
    lo = inputs.min(axis=0)
    hi = inputs.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)
    inputs = (inputs - lo) / span
    return Dataset(inputs, np.concatenate(ys), n_classes)


# ---------------------------------------------------------------------------
# CSV loading


def _open_text(path: str):
    if str(path).endswith(".gz"):
        return io.TextIOWrapper(gzip.open(path, "rb"), encoding="utf-8", newline="")
    return open(path, "r", encoding="utf-8", newline="")


def load_csv_dataset(path: str) -> Dataset:
    """Load `label,f0,f1,...` rows; values validated into `VALUE_RANGE`. A file
    that cannot be opened, decompressed or decoded raises `ParseError` too."""
    try:
        with _open_text(path) as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ParseError(f"{path}: missing header row") from None
            if not header or header[0] != "label" or len(header) < 2:
                raise ParseError(f"{path}: header must be 'label,f0,f1,...'")
            width = len(header) - 1
            lo, hi = VALUE_RANGE
            labels: list[int] = []
            rows: list[list[float]] = []
            for lineno, row in enumerate(reader, start=2):
                if len(row) != width + 1:
                    raise ParseError(f"{path}:{lineno}: expected {width + 1} columns, "
                                     f"got {len(row)}")
                try:
                    label = int(row[0])
                    feats = [float(v) for v in row[1:]]
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric cell") from None
                if label < 0:
                    raise ParseError(f"{path}:{lineno}: negative label")
                if not all(lo <= v <= hi for v in feats):   # NaN fails too
                    raise ParseError(f"{path}:{lineno}: feature outside [{lo:g}, {hi:g}]")
                labels.append(label)
                rows.append(feats)
    except (OSError, EOFError, UnicodeDecodeError, zlib.error) as exc:
        raise ParseError(f"{path}: cannot read: {exc}") from exc
    inputs = np.asarray(rows, dtype=np.float64).reshape(len(rows), width)
    labels_arr = np.asarray(labels, dtype=np.int64)
    return Dataset(inputs, labels_arr, int(labels_arr.max()) + 1 if labels_arr.size else 0)


# ---------------------------------------------------------------------------
# augmentation


def augment(x: Array, rng: np.random.Generator) -> Array:
    """Apply one uniformly drawn op to each row of the (n, d) batch `x`;
    clamp to `VALUE_RANGE`.

    Per row, `rng` draws the op index, then that op's own randomness:
    gaussian-noise adds N(0, (0.1 * m * span)^2) noise, scale stretches
    the row around the range midpoint by 1 + U(-1, 1) * 0.5 * m, where m
    is `AUGMENT_MAGNITUDE` and span is the width of the value range.
    """
    x = np.asarray(x, dtype=np.float64)
    lo, hi = VALUE_RANGE
    mid = (lo + hi) / 2.0
    out = np.empty_like(x)
    for i, row in enumerate(x):
        op = AUGMENT_OPS[int(rng.integers(0, len(AUGMENT_OPS)))]
        if op == "gaussian-noise":
            out[i] = row + rng.normal(0.0, 0.1 * AUGMENT_MAGNITUDE * (hi - lo),
                                      size=row.shape)
        else:
            factor = 1.0 + rng.uniform(-1.0, 1.0) * 0.5 * AUGMENT_MAGNITUDE
            out[i] = mid + (row - mid) * factor
    return np.clip(out, lo, hi)
