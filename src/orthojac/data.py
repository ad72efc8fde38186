"""Dataset ingestion, synthetic data, and deterministic batching.

IDX files are parsed with strict validation (big-endian magics 2051 and
2049, 28x28 images, count agreement) and pixels scaled to [0, 1]; no
further standardization is applied.  All shuffling goes through the
portable RNG, so splits and batch orders are reproducible across runs.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DimensionError, InvalidFractionError, check_shape
from .linalg import random_orthogonal
from .rng import SplitMix64, derive_seed

IMAGE_MAGIC = 2051
LABEL_MAGIC = 2049
IMAGE_SIDE = 28


@dataclass(frozen=True)
class Dataset:
    """Immutable feature/label pairs."""

    features: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise DimensionError(f"features must be 2-D, got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise DimensionError(
                f"labels shape {self.labels.shape} does not match"
                f" {self.features.shape[0]} samples"
            )
        if not np.all(np.isfinite(self.features)):
            raise DimensionError("features must be finite")
        if self.size and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DimensionError(
                f"labels must lie in [0, {self.class_count}), got range"
                f" [{self.labels.min()}, {self.labels.max()}]"
            )

    @property
    def size(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices: np.ndarray) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.class_count)


def _read_header(raw: bytes, path, field_count: int):
    need = 4 * (1 + field_count)
    if len(raw) < need:
        raise DataFormatError(
            f"{path}: truncated header at byte offset {len(raw)} (need {need} bytes)"
        )
    return struct.unpack(f">{1 + field_count}i", raw[:need])


def load_idx(images_path, labels_path) -> Dataset:
    """Load an IDX image/label file pair into a Dataset.

    Pixel bytes are scaled to [0, 1].  The class count is inferred from
    the largest label present.
    """
    with open(images_path, "rb") as fh:
        img_raw = fh.read()
    with open(labels_path, "rb") as fh:
        lab_raw = fh.read()

    magic, img_count, rows, cols = _read_header(img_raw, images_path, 3)
    if magic != IMAGE_MAGIC:
        raise DataFormatError(
            f"{images_path}: bad image magic {magic} at byte offset 0"
            f" (expected {IMAGE_MAGIC})"
        )
    if (rows, cols) != (IMAGE_SIDE, IMAGE_SIDE):
        raise DataFormatError(
            f"{images_path}: unsupported image size {rows}x{cols} at byte offset 8"
            f" (expected {IMAGE_SIDE}x{IMAGE_SIDE})"
        )
    pixel_bytes = img_raw[16:]
    expected = img_count * IMAGE_SIDE * IMAGE_SIDE
    if len(pixel_bytes) != expected:
        raise DataFormatError(
            f"{images_path}: truncated pixel data at byte offset {16 + len(pixel_bytes)}"
            f" (expected {expected} bytes after the header, found {len(pixel_bytes)})"
        )

    lab_magic, lab_count = _read_header(lab_raw, labels_path, 1)
    if lab_magic != LABEL_MAGIC:
        raise DataFormatError(
            f"{labels_path}: bad label magic {lab_magic} at byte offset 0"
            f" (expected {LABEL_MAGIC})"
        )
    label_bytes = lab_raw[8:]
    if len(label_bytes) != lab_count:
        raise DataFormatError(
            f"{labels_path}: truncated label data at byte offset {8 + len(label_bytes)}"
            f" (expected {lab_count} bytes after the header, found {len(label_bytes)})"
        )
    if img_count != lab_count:
        raise DataFormatError(
            f"count mismatch: {images_path} holds {img_count} images but"
            f" {labels_path} holds {lab_count} labels"
        )

    features = np.frombuffer(pixel_bytes, dtype=np.uint8).astype(np.float64)
    features = features.reshape(img_count, IMAGE_SIDE * IMAGE_SIDE) / 255.0
    labels = np.frombuffer(label_bytes, dtype=np.uint8).astype(np.int64)
    class_count = int(labels.max()) + 1 if lab_count else 0
    return Dataset(features, labels, class_count)


def train_val_split(dataset: Dataset, val_fraction: float, seed: int):
    """Seeded shuffle, then split off the first ``val_fraction`` slice."""
    if not 0.0 < val_fraction < 1.0:
        raise InvalidFractionError(f"val_fraction must be in (0, 1), got {val_fraction}")
    n_val = int(round(dataset.size * val_fraction))
    if n_val == 0 or n_val == dataset.size:
        raise InvalidFractionError(
            f"fraction {val_fraction} of {dataset.size} samples leaves an empty split"
        )
    perm = SplitMix64(derive_seed(seed, 0x5)).permutation(dataset.size)
    return dataset.subset(perm[n_val:]), dataset.subset(perm[:n_val])


def synthetic_blobs(classes: int, dim: int, per_class: int, spread: float,
                    seed: int) -> Dataset:
    """Gaussian blobs around seeded unit-norm centers, grouped by class.

    When classes <= dim the centers are rows of a seeded random
    orthogonal matrix, so they are mutually orthogonal unit vectors and
    small-spread blobs stay linearly separable; otherwise centers fall
    back to independent normalized Gaussian draws.
    """
    if classes < 1 or dim < 1 or per_class < 1:
        raise DimensionError("classes, dim and per_class must all be >= 1")
    check_shape((classes * per_class, dim),
                f"{classes} blobs of {per_class} samples in dimension {dim}")
    gen = SplitMix64(derive_seed(seed, 0xB))
    if classes <= dim:
        centers = random_orthogonal(dim, derive_seed(seed, 0xC))[:classes]
    else:
        centers = gen.gaussian_matrix(classes, dim)
        centers /= np.sqrt(np.sum(centers * centers, axis=1, keepdims=True))
    features = np.repeat(centers, per_class, axis=0)
    features = features + spread * gen.gaussian_matrix(classes * per_class, dim)
    labels = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    return Dataset(features, labels, classes)


def batches(dataset: Dataset, batch_size: int, epoch_seed: int):
    """Yield (features, labels) minibatches in a seeded shuffle order.

    The final partial batch is kept.
    """
    if batch_size < 1:
        raise DimensionError(f"batch_size must be >= 1, got {batch_size}")
    perm = SplitMix64(epoch_seed).permutation(dataset.size)
    for start in range(0, dataset.size, batch_size):
        idx = perm[start : start + batch_size]
        yield dataset.features[idx], dataset.labels[idx]
