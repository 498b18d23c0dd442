"""Dataset ingestion (IDX and CSV), normalization, splitting and the
synthetic generators used by the experiments and oracles.

Sample matrices are p x N with samples as columns; labels are integers.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

IDX_MAGIC_IMAGES = 0x00000803
IDX_MAGIC_LABELS = 0x00000801


@dataclass
class LabeledDataset:
    samples: np.ndarray   # p x N
    labels: np.ndarray    # N integers
    source: str = ""

    @property
    def p(self) -> int:
        return self.samples.shape[0]

    @property
    def n(self) -> int:
        return self.samples.shape[1]

    @property
    def classes(self) -> np.ndarray:
        return np.unique(self.labels)


def _read_idx_images(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if len(data) < 16:
        raise ValueError(f"{path}: truncated IDX image file")
    magic, n, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IDX_MAGIC_IMAGES:
        raise ValueError(f"{path}: bad IDX image magic 0x{magic:08x}")
    expected = 16 + n * rows * cols
    if len(data) < expected:
        raise ValueError(f"{path}: truncated IDX image file "
                         f"({len(data)} < {expected} bytes)")
    pixels = np.frombuffer(data, dtype=np.uint8, count=n * rows * cols, offset=16)
    # flatten each image row-major; images become columns, scaled to [0, 1]
    return pixels.reshape(n, rows * cols).T.astype(np.float64) / 255.0


def _read_idx_labels(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if len(data) < 8:
        raise ValueError(f"{path}: truncated IDX label file")
    magic, n = struct.unpack(">II", data[:8])
    if magic != IDX_MAGIC_LABELS:
        raise ValueError(f"{path}: bad IDX label magic 0x{magic:08x}")
    if len(data) < 8 + n:
        raise ValueError(f"{path}: truncated IDX label file")
    return np.frombuffer(data, dtype=np.uint8, count=n, offset=8).astype(np.int64)


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label pair (big-endian MNIST-style containers)."""
    images_path, labels_path = Path(images_path), Path(labels_path)
    X = _read_idx_images(images_path)
    y = _read_idx_labels(labels_path)
    if X.shape[1] != y.shape[0]:
        raise ValueError(
            f"image/label count mismatch: {X.shape[1]} images vs "
            f"{y.shape[0]} labels"
        )
    return LabeledDataset(X, y, source=str(images_path))


def load_csv(path, label_column: int = 0, header: bool = False) -> LabeledDataset:
    """Load samples from CSV rows; ``label_column`` holds the integer label."""
    path = Path(path)
    rows: list[list[float]] = []
    labels: list[int] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        width = None
        for lineno, row in enumerate(reader, start=1):
            if header and lineno == 1:
                continue
            if not row:
                continue
            if width is None:
                width = len(row)
                if not -width <= label_column < width:
                    raise ValueError(
                        f"{path}: label column {label_column} out of range "
                        f"for {width} columns"
                    )
            elif len(row) != width:
                raise ValueError(
                    f"{path}:{lineno}: ragged row ({len(row)} cells, "
                    f"expected {width})"
                )
            try:
                lab_idx = label_column % width
                labels.append(int(float(row[lab_idx])))
                rows.append(
                    [float(v) for i, v in enumerate(row) if i != lab_idx]
                )
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: non-numeric cell") from exc
    if not rows:
        raise ValueError(f"{path}: no data rows")
    X = np.asarray(rows, dtype=np.float64).T
    return LabeledDataset(X, np.asarray(labels, dtype=np.int64), source=str(path))


def save_csv(dataset: LabeledDataset, path) -> None:
    """Write samples as CSV rows with the label in the first column."""
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(dataset.n):
            writer.writerow(
                [int(dataset.labels[i])]
                + [repr(float(v)) for v in dataset.samples[:, i]]
            )


def normalize_unit(dataset: LabeledDataset) -> LabeledDataset:
    """Scale every column to unit l2 norm; zero columns are rejected."""
    norms = np.linalg.norm(dataset.samples, axis=0)
    if np.any(norms == 0):
        raise ValueError("cannot normalize zero columns")
    return LabeledDataset(dataset.samples / norms, dataset.labels.copy(),
                          dataset.source)


def subsample_fraction(
    dataset: LabeledDataset, fraction: float, seed: int = 0
) -> LabeledDataset:
    """Keep a uniform random fraction of the samples (without replacement);
    errors if any class would be lost entirely."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must lie in (0, 1]")
    rng = np.random.Generator(np.random.PCG64(seed))
    n_keep = max(1, int(round(fraction * dataset.n)))
    idx = rng.choice(dataset.n, size=n_keep, replace=False)
    labels = dataset.labels[idx]
    missing = np.setdiff1d(dataset.classes, np.unique(labels))
    if missing.size:
        raise ValueError(
            f"subsampling at fraction {fraction} lost classes {missing.tolist()}"
        )
    return LabeledDataset(dataset.samples[:, idx].copy(), labels, dataset.source)


def split_per_class(
    dataset: LabeledDataset, n_train_per_class: int
) -> tuple[LabeledDataset, LabeledDataset]:
    """Deterministic split: the first ``n_train_per_class`` columns of every
    class go to the train set, the rest to the test set. Samples within a
    class are i.i.d. for the synthetic generators, so position carries no
    information."""
    train_idx, test_idx = [], []
    for lab in dataset.classes:
        idx = np.nonzero(dataset.labels == lab)[0]
        if not 0 < n_train_per_class < idx.size:
            raise ValueError(
                f"class {lab} has {idx.size} samples; cannot take "
                f"{n_train_per_class} for training and leave a test remainder"
            )
        train_idx.append(idx[:n_train_per_class])
        test_idx.append(idx[n_train_per_class:])
    tr = np.concatenate(train_idx)
    te = np.concatenate(test_idx)
    return (
        LabeledDataset(dataset.samples[:, tr].copy(), dataset.labels[tr].copy(),
                       dataset.source),
        LabeledDataset(dataset.samples[:, te].copy(), dataset.labels[te].copy(),
                       dataset.source),
    )


def synth_circles(
    n_per_class: int,
    radii: tuple[float, ...] = (1.0, 2.0),
    noise_sigma: float = 0.05,
    seed: int = 0,
) -> LabeledDataset:
    """Concentric 2-D annuli, one radius per class; nonlinearly separable."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for lab, r in enumerate(radii, start=1):
        theta = rng.uniform(0.0, 2.0 * np.pi, n_per_class)
        rr = r + noise_sigma * rng.standard_normal(n_per_class)
        xs.append(np.stack([rr * np.cos(theta), rr * np.sin(theta)]))
        ys.append(np.full(n_per_class, lab, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(xs, axis=1), np.concatenate(ys), source="synth_circles"
    )


def synth_gaussian_mixture(
    n_per_class: int,
    n_classes: int,
    p: int,
    spread: float = 1.0,
    separation: float = 4.0,
    seed: int = 0,
) -> LabeledDataset:
    """Well-separated isotropic Gaussian blobs; used by sampler benchmarks."""
    rng = np.random.Generator(np.random.PCG64(seed))
    xs, ys = [], []
    for lab in range(1, n_classes + 1):
        center = separation * rng.standard_normal(p)
        xs.append(center[:, None] + spread * rng.standard_normal((p, n_per_class)))
        ys.append(np.full(n_per_class, lab, dtype=np.int64))
    return LabeledDataset(
        np.concatenate(xs, axis=1), np.concatenate(ys),
        source="synth_gaussian_mixture",
    )


def synth_planted_sparse(
    p: int,
    N: int,
    m: int,
    q: int,
    seed: int = 0,
    max_coherence: float = 0.99,
    max_tries: int = 50,
):
    """Exactly q-sparse signals over a random incoherent unit-norm dictionary.

    Regenerates the dictionary until its mutual coherence is below
    ``max_coherence``. Returns (LabeledDataset, D0, Gamma0) with
    X = D0 Gamma0 exactly; labels are all ones (unsupervised data).
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    D0 = None
    for _ in range(max_tries):
        cand = rng.standard_normal((p, m))
        cand /= np.linalg.norm(cand, axis=0)
        G = np.abs(cand.T @ cand)
        np.fill_diagonal(G, 0.0)
        if G.max() <= max_coherence:
            D0 = cand
            break
    if D0 is None:
        raise RuntimeError(
            f"could not draw a dictionary with coherence <= {max_coherence}"
        )
    Gamma0 = np.zeros((m, N))
    for i in range(N):
        support = rng.choice(m, size=q, replace=False)
        # coefficients bounded away from zero so every planted atom matters
        Gamma0[support, i] = (
            rng.choice([-1.0, 1.0], size=q) * rng.uniform(1.0, 2.0, size=q)
        )
    X = D0 @ Gamma0
    ds = LabeledDataset(X, np.ones(N, dtype=np.int64), source="synth_planted")
    return ds, D0, Gamma0
